"""Per-layer metrics of a traced run, reduced from its spans.

A metric of a layer the workload does not exercise (no calls) is 0.
Bytes are computed from the FFT input and output array sizes, not measured.
"""

from __future__ import annotations

import statistics

from spans import LayerStats


def layer_metrics(
    stats: dict[str, LayerStats],
    n_ops: int,
    traced_walls: list[float],
    untraced_walls: list[float],
    workers: int,
    snapshot_bytes: int,
) -> dict[str, tuple[float, str]]:
    def get(name: str) -> LayerStats:
        return stats.get(name, LayerStats())

    steps = get("solver.step").count

    def per_step(x: float) -> float:
        return x / steps if steps else 0.0

    def ms_per_call(name: str) -> float:
        st = get(name)
        return 1e3 * st.total_s / st.count if st.count else 0.0

    def self_ms_per_call(name: str) -> float:
        st = get(name)
        return 1e3 * st.self_s / st.count if st.count else 0.0

    m: dict[str, tuple[float, str]] = {}
    for fn in ("irfftn", "rfftn"):
        st = get(f"fft.{fn}")
        m[f"fft.{fn}.calls_per_step"] = (per_step(st.count), "count")
        m[f"fft.{fn}.channels_per_step"] = (per_step(st.channels), "count")
        m[f"fft.{fn}.ms_per_call"] = (ms_per_call(f"fft.{fn}"), "ms")
        m[f"fft.{fn}.computed_mb_per_step"] = (per_step(st.bytes) / 1e6, "MB")
    m["fft.scipy.calls_per_step"] = (
        per_step(get("fft.irfftn").scipy_calls + get("fft.rfftn").scipy_calls),
        "count",
    )

    m["spectral.nonlinear_term.ms_per_call"] = (ms_per_call("spectral.nonlinear_term"), "ms")
    m["spectral.nonlinear_term.self_ms_per_call"] = (
        self_ms_per_call("spectral.nonlinear_term"),
        "ms",
    )
    m["spectral.leray_project.ms_per_call"] = (ms_per_call("spectral.leray_project"), "ms")
    m["spectral.sobolev_norm.calls_per_step"] = (
        per_step(get("spectral.sobolev_norm").count),
        "count",
    )
    m["spectral.sobolev_norm.ms_per_call"] = (ms_per_call("spectral.sobolev_norm"), "ms")
    m["spectral.inner_product.calls_per_step"] = (
        per_step(get("spectral.inner_product").count),
        "count",
    )

    m["deconv.apply.calls_per_step"] = (per_step(get("deconv.apply").count), "count")
    m["deconv.apply.ms_per_call"] = (ms_per_call("deconv.apply"), "ms")
    m["deconv.hn_symbol.calls_per_step"] = (per_step(get("deconv.hn_symbol").count), "count")

    step_ms = sorted(1e3 * d for d in get("solver.step").durations)
    m["solver.step.ms_p50"] = (statistics.median(step_ms) if step_ms else 0.0, "ms")
    m["solver.step.ms_p90"] = (
        statistics.quantiles(step_ms, n=10)[-1] if len(step_ms) > 1 else 0.0,
        "ms",
    )
    m["solver.step.self_ms_per_call"] = (self_ms_per_call("solver.step"), "ms")
    m["solver.make_state.calls_per_step"] = (per_step(get("solver.make_state").count), "count")
    m["solver.steps_per_op"] = (steps / n_ops if n_ops else 0.0, "count")

    # Only the probe calls solver.simulate: once per member.
    members = get("solver.simulate").durations
    probe = get("attractor.probe")
    m["attractor.member.wall_s_p50"] = (statistics.median(members) if members else 0.0, "s")
    m["attractor.worker_busy_frac"] = (
        sum(members) / (probe.total_s * workers) if probe.count else 0.0,
        "ratio",
    )
    m["attractor.probe.self_s"] = (probe.self_s / probe.count if probe.count else 0.0, "s")

    m["config.generate_ic.calls_per_op"] = (
        get("config.generate_ic").count / n_ops if n_ops else 0.0,
        "count",
    )
    m["config.generate_ic.ms_per_call"] = (ms_per_call("config.generate_ic"), "ms")

    for fn in ("write_snapshot", "read_snapshot", "write_timeseries", "read_timeseries"):
        m[f"storage.{fn}.ms_per_call"] = (ms_per_call(f"storage.{fn}"), "ms")
    snap_calls = get("storage.write_snapshot").count + get("storage.read_snapshot").count
    snap_s = get("storage.write_snapshot").total_s + get("storage.read_snapshot").total_s
    m["storage.snapshot.mb_per_s"] = (
        snap_calls * snapshot_bytes / 1e6 / snap_s if snap_s else 0.0,
        "MB/s",
    )
    m["storage.snapshot_bytes"] = (float(snapshot_bytes), "B")

    # Fastest against fastest, like the end-to-end timings.
    m["trace.overhead_frac"] = (
        min(traced_walls) / min(untraced_walls) - 1.0 if traced_walls and untraced_walls else 0.0,
        "ratio",
    )
    return m
