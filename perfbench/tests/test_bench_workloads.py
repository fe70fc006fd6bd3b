import os

import pytest

from workloads import WORKLOADS, generate, materialize, smallest_job

DATASETS = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src", "torloc", "datasets")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_jobs(workload):
    assert generate(workload, 7, DATASETS) == generate(workload, 7, DATASETS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_other_inputs_same_sizes(workload):
    a = generate(workload, 1, DATASETS)
    b = generate(workload, 2, DATASETS)
    assert a != b
    # sizes are fixed per workload; the seed only draws inside them
    assert [j["id"] for j in a if not j["id"].startswith("pair-")] == \
        [j["id"] for j in b if not j["id"].startswith("pair-")]


def test_materialize_writes_inputs(tmp_path):
    jobs = generate("ktheory-proj", 3, DATASETS)
    manifest = materialize(jobs, str(tmp_path))
    assert len(manifest) == len(jobs)
    first = manifest[0]
    assert first["argv"][:2] == ["ktheory", "--input"]
    assert os.path.exists(first["argv"][2])
    assert smallest_job(jobs)["id"] == "p1-acyclic" or smallest_job(jobs)["id"].startswith("p1-")


def test_small_mixed_has_every_command():
    commands = {j["command"] for j in generate("small-mixed", 0, DATASETS)}
    assert commands == {"les", "lifts", "abbv", "ktheory", "verify"}
