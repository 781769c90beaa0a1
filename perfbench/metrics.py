"""Turns the perfbench binary's raw measurements into the benchmark's metrics.

The measurement binary (perfbench/src) prints one JSON object per run: set-up times,
per-step wall times, program counters, and for traced runs the per-layer
totals its twin replays measured.  This module derives the end-to-end and
per-layer metrics named in BENCHMARK.json from it, applies the correctness
gate, and formats the result line.  It has no dependencies beyond the
standard library so its tests run anywhere.
"""

import json
import math
import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Percentiles tried for a tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10

# Device kinds on the measured path, as the binary names them.
KINDS = {"switch": "drmt", "nic": "nic", "host": "host"}


def percentile(samples, p):
    """Linear-interpolated percentile p (0..100) of a non-empty sample."""
    s = sorted(samples)
    if not s:
        raise ValueError("percentile of an empty sample")
    k = (len(s) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def supports(n, p):
    """True when n samples leave at least MIN_BEYOND beyond percentile p."""
    return n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9  # 100 - 99.9 is inexact


def tail_percentile(samples, ladder=TAIL_LADDER):
    """The highest percentile in `ladder` with at least ten samples beyond it.

    Returns (p, value), or None when even the lowest rung is unsupported.
    """
    for p in ladder:
        if supports(len(samples), p):
            return p, percentile(samples, p)
    return None


def validate_name(name):
    if not isinstance(name, str) or not NAME_RE.match(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def validate_unit(unit):
    if not isinstance(unit, str) or not UNIT_RE.match(unit):
        raise ValueError(f"bad unit {unit!r}")
    return unit


def ratio(num, den):
    return num / den if den else 0.0


# Percentile of the unit wall time the throughput is taken at.
THROUGHPUT_PERCENTILE = 5.0


def end_to_end(raw):
    """End-to-end metrics of an untraced run (see BENCHMARK.json)."""
    u = raw["untraced"]
    steps = u["step_ms"]
    # The binary runs at least 1000 steps, so the peak RSS it samples
    # after that many covers a fixed amount of work.
    if len(steps) < 1000:
        raise ValueError(f"only {len(steps)} step times; the binary runs at least 1000")
    # A unit of complete work: one slice on the fabrics, one whole rollout
    # on the fleet (its steps are waves, which differ by device kind).
    units = u["rollout_ms"] or steps
    setups = sorted(raw["setup_s"])
    return {
        # Work items (delivered packets on the fabrics, device updates on
        # the fleet) per unit over the unit's 5th-percentile wall time: the
        # rate the program sustains while the shared host is not slowing
        # it down.  Step medians and tails and the mean rate over the
        # whole run swing with the host's slow phases; run.py prints them,
        # unbounded.
        "throughput_per_s": u["counts"]["work.items"] / len(units)
                            / (percentile(units, THROUGHPUT_PERCENTILE) / 1e3),
        "setup_s": setups[len(setups) // 2],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def _mean(layers, name):
    return ratio(layers[name + ".ns"], layers[name + ".n"])


def per_layer(raw):
    """Per-layer metrics of a traced run, plus the layer table's rows.

    Returns (metrics, rows) where rows maps a layer to its wall nanoseconds
    in the traced run; trace.coverage is their sum over the traced run's
    wall time spent on the untraced run's work.
    """
    u, t = raw["untraced"], raw["traced"]
    c, L = u["counts"], t["layers"]
    pkts = c["net.delivered"]
    rollouts = c["fleet.rollouts"]
    fleet = rollouts > 0
    lookups = c["dataplane.micro_hits"] + c["dataplane.micro_misses"]
    m = {}
    m["packet.build_ns"] = _mean(L, "build")
    m["sim.events_per_pkt"] = ratio(c["sim.events"], pkts)
    for kind, key in KINDS.items():
        m[f"device.{kind}_ns"] = _mean(L, "device." + key)
    sw_pkts = L["pipeline.n"]
    m["dataplane.pipeline_ns"] = ratio(L["pipeline.ns"], sw_pkts)
    m["dataplane.parse_ns"] = ratio(L["parse.ns"], sw_pkts)
    m["dataplane.match_ns"] = ratio(L["match.ns"], sw_pkts)
    m["dataplane.micro_ns_p50"] = L["micro.p50_ns"]
    m["dataplane.mega_ns_p50"] = L["mega.p50_ns"]
    m["dataplane.slow_ns_p50"] = L["slow.p50_ns"]
    m["dataplane.micro_hit_ratio"] = ratio(c["dataplane.micro_hits"], lookups)
    m["dataplane.mega_hit_ratio"] = ratio(c["dataplane.mega_hits"], lookups)
    m["dataplane.evictions_per_pkt"] = ratio(c["dataplane.evictions"], pkts)
    m["dataplane.scanned_lookups_per_pkt"] = ratio(
        c["dataplane.lookups_scanned"], pkts)
    m["dataplane.epoch_bumps_per_rollout"] = ratio(
        c["dataplane.epochs"], rollouts) if fleet else 0.0
    m["flexbpf.run_ns"] = _mean(L, "fn_run")
    m["flexbpf.runs_per_pkt"] = ratio(c["flexbpf.runs"], pkts)
    m["flexbpf.compile_us"] = ratio(L["compile_ns_total"],
                                     L["add_function_steps"]) / 1e3
    m["compiler.plan_key_us"] = _mean(L, "plan_key") / 1e3
    m["compiler.device_fingerprint_us"] = _mean(L, "device_fp") / 1e3
    m["compiler.program_fingerprint_us"] = _mean(L, "program_fp") / 1e3
    m["compiler.class_plan_us"] = _mean(L, "class_plan") / 1e3
    m["compiler.verify_us"] = _mean(L, "verify") / 1e3
    m["compiler.diff_us"] = _mean(L, "diff") / 1e3
    m["compiler.plan_cache_hit_ratio"] = ratio(
        c["compiler.plans_reused"],
        c["compiler.plans_reused"] + c["compiler.plans_compiled"]) if fleet else 0.0
    m["runtime.apply_step_us"] = _mean(L, "apply_step") / 1e3
    m["runtime.steps_per_device"] = ratio(c["reconfig.steps_applied"],
                                           c["reconfig.devices_updated"])
    m["controller.msgs_per_device"] = ratio(c["fleet.control_messages"],
                                             c["reconfig.devices_updated"])
    m["controller.sim_events_per_rollout"] = ratio(c["sim.events"], rollouts)
    m["controller.waves_per_rollout"] = ratio(c["fleet.waves"], rollouts)
    m["model.latency_ns"] = c["model.latency_ns"]
    m["model.energy_nj_per_pkt"] = ratio(c["model.energy_nj"], pkts)

    # Work the traced run did only to measure: packet copies, the twin
    # replays, and (fleet) the twin reconfigurations between rollouts.
    trace_only = L["burst_event.ns"] - L["build.ns"] + L["twin_reconfig.ns"]
    traced_work = t["wall_s"] * 1e9 - trace_only
    devices = sum(L[f"device.{k}.ns"] for k in KINDS.values())
    rows = {"packet.build": L["build.ns"]}
    for kind, key in KINDS.items():
        rows[f"device.{kind}"] = L[f"device.{key}.ns"]
    if fleet:
        # The rollout span's self time mixes controller waves, Raft, the
        # simulator and invariant checks; it stays uncovered.
        rows["compiler.plan_key"] = _mean(L, "plan_key") * c["reconfig.devices_updated"]
        rows["compiler.class_plan"] = _mean(L, "class_plan") * c["compiler.plans_compiled"]
        rows["runtime.apply_step"] = _mean(L, "apply_step") * c["reconfig.steps_applied"]
        m["net.transport_share"] = 0.0
    else:
        # The timed simulator spans (one per slice) minus the burst events
        # the benchmark timed itself and minus the devices the twins timed
        # is the transport's self time: event dispatch, hop settling,
        # routing, delivery.  The wall outside those spans (loop and
        # drain) stays uncovered.
        sim_spans = sum(t["step_ms"]) * 1e6
        rows["net.transport"] = sim_spans - L["burst_event.ns"] - devices
        m["net.transport_share"] = ratio(rows["net.transport"], traced_work)
    m["trace.coverage"] = ratio(sum(rows.values()), traced_work)
    m["trace.overhead"] = ratio(t["wall_s"], u["wall_s"])
    return m, rows


def determinism_errors(raw):
    """Counts that differ between the untraced and the traced phase."""
    if "traced" not in raw:
        return []
    a, b = raw["untraced"]["counts"], raw["traced"]["counts"]
    return [f"{k}: untraced {a.get(k)} != traced {b.get(k)}"
            for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]


def gate_errors(raw):
    """Every correctness failure of the run (empty when clean)."""
    errors = []
    for phase in ("untraced", "traced"):
        if phase in raw:
            errors += [f"{phase}: {e}" for e in raw[phase]["errors"]]
            c = raw[phase]["counts"]
            if c["net.dropped"] or c["net.delivered"] != c["net.injected"]:
                errors.append(f"{phase}: loss {c['net.injected'] - c['net.delivered']:.0f}"
                              f" of {c['net.injected']:.0f} packets")
            if raw[phase]["failed"]:
                errors.append(f"{phase}: {raw[phase]['failed']} failed operations")
    errors += determinism_errors(raw)
    return errors


def result_line(correct, attempted, failed, metrics, spec):
    """The final JSON line: exactly the metrics `spec` lists, with units.

    `spec` is the BENCHMARK.json list (end_to_end or per_layer) the metrics
    must match; a missing, extra or non-finite metric is a ValueError.
    """
    names = [validate_name(s["name"]) for s in spec]
    if sorted(names) != sorted(metrics):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise ValueError(f"metrics differ from the spec: missing {missing}, extra {extra}")
    out = {}
    for s in spec:
        value = metrics[s["name"]]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise ValueError(f"metric {s['name']} is not a finite number: {value!r}")
        out[s["name"]] = {"value": value, "unit": validate_unit(s["unit"])}
    if not isinstance(attempted, int) or attempted < 1:
        raise ValueError(f"attempted must be a positive integer, got {attempted!r}")
    if not isinstance(failed, int) or failed < 0:
        raise ValueError(f"failed must be a non-negative integer, got {failed!r}")
    return json.dumps({"correct": bool(correct), "attempted": attempted,
                       "failed": failed, "metrics": out})
