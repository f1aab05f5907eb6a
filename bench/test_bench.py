"""Tests of the benchmark itself: span arithmetic, tracing and the gate.

Run with `python3 -m pytest bench -q` from the repository root.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from deconvbox import solver  # noqa: E402
from layers import layer_metrics  # noqa: E402
from spans import Span, Tracer, counts_by_op, reduce_spans, self_times  # noqa: E402
from workloads import (  # noqa: E402
    CheckpointWorkload,
    ProbeWorkload,
    WORKLOADS,
    SimulateWorkload,
    check_energy,
    check_repeat,
    check_state,
)


def small_workloads(workdir):
    checkpoint = CheckpointWorkload(
        K=16, segments=2, steps_per_segment=2, seed=3, reference_steps=1
    )
    checkpoint.prepare(workdir)
    return {
        "trajectory": SimulateWorkload(K=16, T=0.03, sample_every=1, seed=3, reference_steps=1),
        "probe": ProbeWorkload(K=16, members=2, R=0.55, seed=3, reference_steps=1),
        "checkpoint": checkpoint,
    }


def nudged(state):
    """A copy of the state with the lowest bit of one coefficient flipped."""
    out = dataclasses.replace(state, w=state.w.copy())
    c = out.w.coeff[1, 1, 2, 3]
    out.w.coeff[1, 1, 2, 3] = complex(np.nextafter(c.real, np.inf), c.imag)
    return out


def test_self_time_on_a_synthetic_tree():
    spans = [
        Span(1, None, 0, "op", 0.0, 10.0),
        Span(2, 1, 0, "a", 1.0, 4.0),
        Span(3, 1, 0, "b", 3.0, 6.0),  # overlaps a, as a parallel worker would
        Span(4, 2, 0, "leaf", 2.0, 3.0),
        Span(5, 1, 0, "leaf", 9.0, 12.0),  # runs past its parent: clipped
        Span(6, None, 1, "op", 20.0, 21.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[6] == pytest.approx(1.0)

    stats = reduce_spans(spans)
    assert stats["op"].count == 2
    assert stats["op"].self_s == pytest.approx(5.0)
    assert stats["leaf"].count == 2
    assert stats["leaf"].total_s == pytest.approx(4.0)
    assert counts_by_op(spans) == {0: {"op": 1, "a": 1, "b": 1, "leaf": 2}, 1: {"op": 1}}


def test_tracing_changes_no_result(tmp_path, monkeypatch):
    monkeypatch.setenv("DECONV_THREADS", "2")
    original_step = solver.step
    for name, workload in small_workloads(tmp_path).items():
        untraced = workload.gate(workload.op())
        assert untraced.problems == [], name

        tracer = Tracer()
        tracer.op = 0
        tracer.install()
        try:
            traced = workload.gate(workload.op())
        finally:
            tracer.uninstall()
        assert solver.step is original_step
        assert traced.digests == untraced.digests, name
        assert check_repeat(traced, untraced) == []

        stats = reduce_spans(tracer.spans)
        assert stats["solver.step"].count == untraced.steps, name
        assert stats["fft.irfftn"].channels >= 12 * untraced.steps
        if name == "probe":
            probe = [s for s in tracer.spans if s.name == "attractor.probe"]
            members = [s for s in tracer.spans if s.name == "solver.simulate"]
            assert len(probe) == 1 and len(members) == 2
            assert all(m.parent == probe[0].id for m in members)
        if name == "checkpoint":
            assert stats["storage.read_snapshot"].count == 1
            assert stats["storage.write_snapshot"].count == 2


def test_gate_rejects_a_perturbed_state(tmp_path):
    workloads = small_workloads(tmp_path)
    trajectory = workloads["trajectory"]
    traj, state = trajectory.op()
    good = trajectory.gate((traj, state))
    assert good.problems == []

    # A non-solenoidal kick along k = (1, 0, 0) breaks divergence-freeness.
    kicked = dataclasses.replace(state, w=state.w.copy())
    kicked.w.coeff[0, 1, 0, 0] += 1e-3
    assert any("divergence_error" in p for p in check_state(traj, kicked, "x"))

    # An energy jump at T breaks the balance.
    columns = traj.columns()
    columns["energy_residual"] = columns["energy_residual"].copy()
    columns["energy_residual"][-1] = traj.h0_sq[0]
    assert check_energy(type(traj)(**columns), "x")

    # One flipped low bit fails the bit-identical repetition check.
    repeat = trajectory.gate((traj, nudged(state)))
    assert check_repeat(repeat, good) == ["digest final differs from the first operation"]

    # A checkpoint chain that ends elsewhere than the uninterrupted run.
    checkpoint = workloads["checkpoint"]
    segments, size = checkpoint.op()
    assert checkpoint.gate((segments, size)).problems == []
    last_traj, last_state, back = segments[-1]
    segments[-1] = (last_traj, nudged(last_state), back)
    assert "checkpoint chain differs from the uninterrupted run" in checkpoint.gate(
        (segments, size)
    ).problems

    # A probe that did not pass, or a member outside the envelope.
    probe = workloads["probe"]
    report = probe.op()
    assert probe.gate(report).problems == []
    failed = dataclasses.replace(
        report,
        passed=False,
        members=(dataclasses.replace(report.members[0], bound_ok=False),)
        + report.members[1:],
    )
    problems = probe.gate(failed).problems
    assert "probe: probe did not pass" in problems
    assert "probe: member 0 breaks the decay envelope" in problems


def test_timings_are_rescaled_per_round():
    outcome = dataclasses.make_dataclass("O", ["steps"])(10)
    # Round 1 ran while the machine was twice as slow: its operation and
    # set-ups took twice as long, and its speed factor is one half.
    timed = [(outcome, 1.0, False), (outcome, 2.0, False), (outcome, 1.1, False)]
    setups = [0.1] * run.SETUPS_PER_OP + [0.2] * run.SETUPS_PER_OP + [0.1] * run.SETUPS_PER_OP
    metrics = run.end_to_end_metrics(setups, timed, [1.0, 0.5, 1.0], 50.0)
    assert metrics["wall_s"] == (pytest.approx(1.0), "s")
    assert metrics["steps_per_s"] == (pytest.approx(10.0), "1/s")
    assert metrics["setup_s"] == (pytest.approx(0.1), "s")
    assert metrics["peak_rss_mb"] == (50.0, "MB")


def test_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = run.end_to_end_metrics([0.1], [], [1.0], 100.0)
    layers = layer_metrics({}, n_ops=0, traced_walls=[], untraced_walls=[],
                           workers=1, snapshot_bytes=0)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    for name, (_, unit) in {**e2e, **layers}.items():
        assert units[name] == unit, name
