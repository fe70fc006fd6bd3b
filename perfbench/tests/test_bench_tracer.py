import contextlib
import io
import os

import pytest

from tracer import Tracer, layer_metrics, self_times

DATASETS = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src", "torloc", "datasets")


def test_self_time_of_a_synthetic_tree():
    spans = [
        (0, "cli.main", 0.0, 10.0, None),
        (1, "torsor.les", 1.0, 4.0, 0),
        (2, "linalg.elim", 2.0, 3.0, 1),
        (3, "torsor.les", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}


def test_self_time_counts_overlapping_children_once():
    spans = [(0, "a", 0.0, 10.0, None), (1, "b", 1.0, 5.0, 0),
             (2, "b", 3.0, 7.0, 0), (3, "b", 9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_nested_wrappers_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("torsor.les", lambda: None)
    outer = tracer.wrap("torsor.exactness", lambda: inner())
    outer()
    # outer spans ticks 0..3, inner 1..2
    assert tracer.stage_self_times() == {"torsor.exactness": 2, "torsor.les": 1}


def test_install_patches_every_importer_and_uninstall_restores():
    from torloc import cli, torsor

    original = torsor.les
    assert cli.les is original
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.les is torsor.les is not original
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["les", "--input", os.path.join(DATASETS, "circle_lifts.json")])
        assert code == 0
        stages = {s[1] for s in tracer.spans}
        assert {"cli.main", "io.parse", "torsor.les", "torsor.exactness",
                "torsor.cohomology", "linalg.elim", "cli.emit"} <= stages
        metrics = layer_metrics(tracer, tracer.stage_self_times())
        assert metrics["torsor.exactness.calls"] == 1
        assert metrics["io.input_bytes"] == os.path.getsize(
            os.path.join(DATASETS, "circle_lifts.json"))
        assert 0 < metrics["torsor.cohomology.useful_frac"] <= 1
        assert sum(metrics[f"{layer}.share"] for layer in (
            "io", "simplicial", "linalg", "torsor", "cli")) == pytest.approx(1.0)
    finally:
        tracer.uninstall()
    assert cli.les is torsor.les is original


def test_probe_quantile_matches_the_best_of_n_quantile():
    from worker import best_pass, best_times, quantile

    probes = [0.010, 0.006, 0.009, 0.007, 0.008, 0.011, 0.012, 0.013, 0.014]
    # best of 2 passes lies near quantile 1/3: index 9 // 3 = 3 of the sorted times
    assert quantile(probes, 2) == 0.009
    assert quantile(probes, 8) == 0.007
    job_s = [[1.0, 5.0], [2.0, 4.0]]
    assert best_times(job_s) == [1.0, 4.0]
    assert best_pass(job_s) == 5.0
