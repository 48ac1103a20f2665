import json

import pytest

import qmeasure.bernoulli
import qmeasure.cli
from perfbench.harness import run_cli
from perfbench.tracing import Tracer, self_times


def test_self_time_subtracts_nested_children():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("d", 5.0, 7.0, 0),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 5.0, 0), ("c", 3.0, 6.0, 0)]
    assert self_times(spans)[0] == 5.0


@pytest.fixture()
def tracer():
    tracer = Tracer()
    tracer.install()
    yield tracer
    tracer.uninstall()


def test_nested_calls_are_spans_with_self_time(tracer):
    code, _ = run_cli(["coin", "straddle", "--n", "200", "--eps", "1/100"])
    tracer.end_request()
    assert code == 0
    for name in ("cli.main", "bernoulli.straddle_set_cardinality",
                 "bernoulli.tail_cutoff", "bernoulli.cumulative"):
        assert tracer.calls[name] == 1
    assert tracer.counts["bernoulli.tosses"] == 400
    assert 0 <= tracer.self_s["bernoulli.straddle_set_cardinality"] < tracer.self_s["bernoulli.tail_cutoff"]


def test_generator_span_covers_the_iteration(tracer):
    code, text = run_cli(["coin", "tail", "--n", "300", "--eps", "1/100"])
    tracer.end_request()
    assert code == 0 and len(text.splitlines()) == 302
    assert tracer.calls["bernoulli.tail_rows"] == 1
    # the rows are computed while cli prints them, inside the span
    assert tracer.self_s["bernoulli.tail_rows"] > tracer.self_s["cli.main"] / 10


def test_names_imported_by_other_modules_are_traced(tracer, tmp_path):
    path = tmp_path / "t.json"
    values = {hex(m): f"{bin(m).count('1')}/2" for m in range(4)}
    path.write_text(json.dumps({"histories": ["a", "b"],
                                "measure": {"type": "table", "values": values}}))
    code, _ = run_cli(["measure", "--theory", str(path), "--level"])
    tracer.end_request()
    assert code == 0
    assert tracer.calls["core.load_theory"] == 1
    assert tracer.calls["exact.parse_rational"] >= 8
    assert tracer.calls["core.level"] == 1 and tracer.calls["core.full_table"] == 1
    assert tracer.counts["core.lattice_events"] == 8


def test_uninstall_restores_the_package():
    originals = (qmeasure.cli.main, qmeasure.bernoulli.tail_cutoff,
                 qmeasure.cli.load_theory, qmeasure.core.HistoriesTheory.level)
    tracer = Tracer()
    tracer.install()
    assert qmeasure.bernoulli.tail_cutoff is not originals[1]
    tracer.uninstall()
    assert (qmeasure.cli.main, qmeasure.bernoulli.tail_cutoff,
            qmeasure.cli.load_theory, qmeasure.core.HistoriesTheory.level) == originals
