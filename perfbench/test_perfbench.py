"""Fast checks of the benchmark itself: deterministic inputs, a tracer that
leaves no patched binding behind, and a tiny pass of every workload."""

import sys

import pytest

import run
import spans
import workloads

ls = run.import_package()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generators_are_deterministic_per_seed(name):
    first = workloads.build(name, 5)
    assert first == workloads.build(name, 5)
    assert first != workloads.build(name, 6)
    assert len(first) >= 100


def test_scrambled_copies_are_unimodular_images():
    calls = workloads.catalog_calls(3)
    for call in calls:
        if call.original is not None:
            assert workloads._det(call.gram) == workloads._det(calls[call.original].gram)


def test_dense_mix_is_the_population_quantiles():
    assert workloads.dense_population_taus(6, 34, 20000) == workloads.DENSE_TAUS[6]


def test_dense_mix_is_the_same_for_every_seed():
    expected = sorted(t for rank in workloads.DENSE_RANKS for t in workloads.DENSE_TAUS[rank])
    for seed in (1, 7):
        calls = workloads.dense_calls(seed)
        taus = sorted(workloads._divisor_count(workloads._det(c.gram)) for c in calls if not c.floor)
        assert taus == expected
        copies = [c for c in calls if c.original is not None]
        assert len(copies) == len(workloads.SEEDED_TAUS) * len(workloads.DENSE_RANKS)
        assert all(c.floor > 0 and calls[c.original].floor == c.floor for c in copies)


def test_invariants_catch_lost_screeners():
    calls = workloads.dense_calls(1)
    summaries = [c.floor for c in calls]
    assert not workloads.violations(calls, summaries)
    copy = next(i for i, c in enumerate(calls) if c.original is not None)
    summaries[copy] = 0
    assert set(workloads.violations(calls, summaries)) == {copy}


def test_rank2_screener_count_matches_the_package():
    for a, b, c in ((2, -1, 2), (4, 2, 4), (8, -4, 8), (6, 3, 9), (3, 1, 5), (20, -10, 20), (12, 0, 18)):
        expected = len(ls.all_screeners(ls.Lattice([[a, b], [b, c]])))
        assert workloads._rank2_screener_count(a, b, c) == expected


def test_quantiles_weigh_order_statistics_to_one():
    assert run.quantile_ms([0.004] * 50, 0.9) == pytest.approx(4.0)
    ramp = [k / 1000 for k in range(1, 102)]
    assert run.quantile_ms(ramp, 0.5) == pytest.approx(51.0, abs=1e-3)
    assert 90.0 < run.quantile_ms(ramp, 0.9) < 92.0


def _bindings():
    """Identity of every attribute of the latscreen namespaces and of Lattice."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == "latscreen" or modname.startswith("latscreen.")):
            for key, val in vars(mod).items():
                out[(modname, key)] = id(val)
    for key, val in vars(ls.Lattice).items():
        out[("Lattice", key)] = id(val)
    return out


def test_tracer_restores_every_binding():
    before = _bindings()
    tracer = spans.Tracer()
    with tracer:
        assert tracer.patched and not tracer.missing
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in tracer.patched)
        for name in workloads.NAMES:
            run.run_pass(ls, workloads.build(name, 1)[:2], tracer)
    assert not tracer.patched
    assert _bindings() == before
    assert ls.cli.parse_lattice.__module__ == "latscreen.cli"
    assert not hasattr(ls.enumeration._int_determinant, "__wrapped__")
    metrics = tracer.layer_metrics()
    names = {name for name, _, _ in spans.metric_spec()}
    assert set(metrics) | {"cli.stdout_bytes", "trace.overhead_ratio"} == names
    assert metrics["cli.main.calls"] == 2
    assert metrics["recognition.identify_extended_type.calls"] == 2
    assert metrics["screeners.shells.walked"] > 0


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_pass_reports_every_metric(name):
    calls = workloads.build(name, workloads.DEFAULT_SEED)[:4]
    frozen = run.frozen_digests(name, workloads.DEFAULT_SEED)
    result, detail = run.measure(ls, name, calls, 0.0, frozen[:4] if frozen else None, probes=1)
    assert result["failed"] == 0, detail["failures"]
    assert set(result["metrics"]) == {m for m, _ in run.END_TO_END}
    assert result["metrics"]["ok_ratio"] == 1.0
    assert all(v > 0 for v in result["metrics"].values())
