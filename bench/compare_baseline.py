#!/usr/bin/env python3
"""Merge bench JSON outputs and enforce the bench-regression gate.

Reads the per-bench JSON files written via MAN_BENCH_JSON
(bench_serve_throughput and the bench_fig9_energy replays), merges them
into one BENCH_<sha>.json artifact, and compares against the checked-in
bench/baseline.json:

  * serve_throughput.qps dropping more than `max_drop` (default 15%)
    below baseline fails the job (exit 1);
  * serve_http (the HTTP front-end's open-loop overload sweep) must
    report a usable capacity/p999 and, against the baseline bounds: a
    shed rate at overload of at least min_shed_rate_overload (zero
    means overload is buffered instead of shed with 429s), a
    post-overload p99 recovery ratio of at most max_recovery_p99_ratio,
    and a p999 at capacity under max_p999_ms;
  * serve_http_tiered (the QoS precision-ladder sweep) must report
    zero 200s missing the X-Man-Accuracy-Tier header, per-tier
    bit-identity, a 2C shed rate strictly below the shed-only
    reference (in-process runs), and a lower-tier 200 share at 2C of
    at least the baseline's min_lower_tier_share_overload;
  * fig9_replay / fig9_cnn_replay backend speedups below the
    baseline's min_speedup floors fail the job — the floors are set
    at roughly half the measured speedup so runner variance cannot
    flap them, and they catch a backend silently degrading to the
    scalar path (the hard bit-exactness gate stays the bench's own
    exit code);
  * a replay's epilogue_share (the share of its profiled
    single-thread time spent outside the kernels: the fused
    quantize/staging/LUT/pool sweeps, a ratio measured in one process)
    above that replay's max_epilogue_share ceiling in the baseline
    (fig9_replay and fig9_cnn_replay each carry one) fails the job;
  * artifact_cold_start (the plan-artifact mmap-load vs in-process
    build comparison) must be bit-identical and its load-vs-build
    speedup must meet the baseline's min_speedup floor;
  * each replay's scalar_ms_per_sample is compared against the
    baseline's reference_scalar_ms_per_sample (a dev-container
    measurement recorded when the staging/LUT work landed) and the
    resulting speedup_vs_reference is printed and stored in the
    merged artifact — informational only, absolute times are
    hardware-dependent;
  * a bench reporting bit_identical: false fails the job;
  * a measured section or value that is missing or unusable (absent
    key, zero/garbage QPS) fails the job — a gate that silently skips
    is a gate that masks regressions;
  * a *baseline* entry that is absent produces a clear skip warning
    (new benches land before their baseline entry); a baseline entry
    that is present but unusable (zero/garbage QPS) fails, because it
    would turn the floor into a no-op.

Usage:
  compare_baseline.py --serve serve.json --fig9 fig9.json \
      --baseline bench/baseline.json --out BENCH_abc123.json
"""

import argparse
import json
import sys


def load(path):
    with open(path) as fh:
        return json.load(fh)


def usable_number(value):
    """A finite, positive, real number — not bool, not a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return value > 0 and value == value and value not in (float("inf"),)


def check_throughput(serve, baseline, failures, warnings):
    throughput = serve.get("serve_throughput")
    if not isinstance(throughput, dict):
        failures.append(
            "serve JSON has no serve_throughput section - did "
            "bench_serve_throughput run with MAN_BENCH_JSON set?")
        return
    if not throughput.get("bit_identical", False):
        failures.append("serve bench reported bit_identical: false")
    qps = throughput.get("qps")
    if not usable_number(qps):
        failures.append(f"serve bench reported unusable qps: {qps!r}")
        return

    base = baseline.get("serve_throughput")
    if not isinstance(base, dict):
        warnings.append(
            "skip: bench/baseline.json has no serve_throughput entry; "
            "QPS floor not enforced - add one via the refresh workflow "
            "(README 'Bench regression workflow')")
        return
    baseline_qps = base.get("qps")
    if not usable_number(baseline_qps):
        failures.append(
            f"baseline serve_throughput.qps is unusable "
            f"({baseline_qps!r}); the floor would be a no-op - fix "
            f"bench/baseline.json via the refresh workflow")
        return
    max_drop = baseline.get("max_drop")
    # 0 is a legitimate (zero-tolerance) setting here, unlike the
    # measured values usable_number() vets.
    if (isinstance(max_drop, bool) or
            not isinstance(max_drop, (int, float)) or
            not 0 <= max_drop < 1.0):
        warnings.append(
            f"baseline max_drop is unusable ({max_drop!r}); using 0.15")
        max_drop = 0.15
    floor = baseline_qps * (1.0 - max_drop)
    print(f"throughput: {qps:.1f} QPS (baseline {baseline_qps:.1f}, "
          f"floor {floor:.1f} at -{max_drop:.0%})")
    if qps < floor:
        failures.append(
            f"QPS {qps:.1f} is below the regression floor {floor:.1f} "
            f"(baseline {baseline_qps:.1f} - {max_drop:.0%})")


def check_http(serve, baseline, failures, warnings):
    http = serve.get("serve_http")
    if not isinstance(http, dict):
        failures.append(
            "serve JSON has no serve_http section - did "
            "bench_serve_throughput run its HTTP phases?")
        return
    if not http.get("bit_identical", False):
        failures.append("serve_http reported bit_identical: false")

    # The open-loop sweep's headline numbers must at least be real
    # measurements, baseline or not.
    capacity = http.get("capacity_qps")
    if not usable_number(capacity):
        failures.append(
            f"serve_http reported unusable capacity_qps: {capacity!r}")
    p999 = http.get("p999_ms")
    if not usable_number(p999):
        failures.append(f"serve_http reported unusable p999_ms: {p999!r}")
    shed_rate = http.get("shed_rate_overload")
    if isinstance(shed_rate, bool) or not isinstance(shed_rate, (int, float)):
        failures.append(
            f"serve_http reported unusable shed_rate_overload: {shed_rate!r}")
        shed_rate = None
    recovery = http.get("recovery_p99_ratio")
    if not usable_number(recovery):
        failures.append(
            f"serve_http reported unusable recovery_p99_ratio: {recovery!r}")
        recovery = None

    base = baseline.get("serve_http")
    if not isinstance(base, dict):
        warnings.append(
            "skip: bench/baseline.json has no serve_http entry; overload "
            "bounds not enforced - add one via the refresh workflow")
        return
    min_shed = base.get("min_shed_rate_overload")
    if usable_number(min_shed) and shed_rate is not None:
        line = (f"serve_http: shed rate {shed_rate:.1%} at 2x capacity "
                f"{capacity if usable_number(capacity) else 0:.0f} qps")
        if shed_rate < min_shed:
            failures.append(
                f"{line} is below the floor {min_shed:.1%} - overload is "
                f"not being shed with 429s")
        else:
            print(line)
    max_recovery = base.get("max_recovery_p99_ratio")
    if usable_number(max_recovery) and recovery is not None:
        line = f"serve_http: post-overload p99 ratio {recovery:.2f}x"
        if recovery > max_recovery:
            failures.append(
                f"{line} exceeds {max_recovery:.2f}x - p99 is not "
                f"recovering once load drops")
        else:
            print(line)
    max_p999 = base.get("max_p999_ms")
    if usable_number(max_p999) and usable_number(p999):
        line = f"serve_http: p999 {p999:.1f} ms at capacity"
        if p999 > max_p999:
            failures.append(f"{line} exceeds the {max_p999:.0f} ms bound")
        else:
            print(line)


def check_http_tiered(serve, baseline, failures, warnings):
    tiered = serve.get("serve_http_tiered")
    if not isinstance(tiered, dict):
        failures.append(
            "serve JSON has no serve_http_tiered section - did "
            "bench_serve_throughput run its tiered QoS phase?")
        return
    if not tiered.get("bit_identical", False):
        failures.append("serve_http_tiered reported bit_identical: false")
    missing = tiered.get("tier_header_missing")
    if missing != 0:
        failures.append(
            f"serve_http_tiered: {missing!r} 200s lacked the "
            f"X-Man-Accuracy-Tier header - every served response must "
            f"declare its tier")

    shed_rate = tiered.get("tiered_shed_rate_2c")
    if isinstance(shed_rate, bool) or not isinstance(shed_rate, (int, float)):
        failures.append(
            f"serve_http_tiered reported unusable tiered_shed_rate_2c: "
            f"{shed_rate!r}")
        shed_rate = None
    lower_share = tiered.get("lower_tier_share_2c")
    if (isinstance(lower_share, bool) or
            not isinstance(lower_share, (int, float))):
        failures.append(
            f"serve_http_tiered reported unusable lower_tier_share_2c: "
            f"{lower_share!r}")
        lower_share = None

    if tiered.get("external"):
        # An external target has no in-process shed-only twin to
        # compare against; the header/bit-identity checks above and
        # the http-smoke curve assertion still apply.
        warnings.append(
            "skip: serve_http_tiered ran against an external server; "
            "shed-only comparison not enforced")
        return

    # The tentpole gate: at 2x capacity, degrading precision must shed
    # strictly less than the shed-only server under identical config.
    shed_only = tiered.get("shed_only_shed_rate_2c")
    if not usable_number(shed_only):
        failures.append(
            f"serve_http_tiered reported unusable shed_only_shed_rate_2c "
            f"({shed_only!r}) - the shed-only 2C reference did not "
            f"overload, so the comparison is meaningless")
        return
    if shed_rate is not None:
        line = (f"serve_http_tiered: 2C shed rate {shed_rate:.1%} tiered "
                f"vs {shed_only:.1%} shed-only")
        if shed_rate >= shed_only:
            failures.append(
                f"{line} - the precision ladder is not absorbing "
                f"overload that plain admission control sheds")
        else:
            print(line)

    base = baseline.get("serve_http_tiered")
    if not isinstance(base, dict):
        warnings.append(
            "skip: bench/baseline.json has no serve_http_tiered entry; "
            "lower-tier share floor not enforced - add one via the "
            "refresh workflow")
        return
    min_share = base.get("min_lower_tier_share_overload")
    if usable_number(min_share) and lower_share is not None:
        line = (f"serve_http_tiered: lower-tier share {lower_share:.1%} "
                f"at 2C")
        if lower_share < min_share:
            failures.append(
                f"{line} is below the floor {min_share:.1%} - the "
                f"degradation ladder never engaged under overload")
        else:
            print(line)


def check_replay(name, fig9, baseline, failures, warnings):
    replay = fig9.get(name)
    if not isinstance(replay, dict):
        failures.append(
            f"fig9 JSON has no {name} section - did bench_fig9_energy "
            f"run with MAN_BENCH_JSON set?")
        return
    if not replay.get("bit_identical", False):
        failures.append(f"{name} reported bit_identical: false")

    base = baseline.get(name)
    if not isinstance(base, dict):
        warnings.append(
            f"skip: bench/baseline.json has no {name} entry; speedup "
            f"expectations not checked")
        expectations = {}
    else:
        expectations = base.get("min_speedup", {})
        if not isinstance(expectations, dict):
            warnings.append(
                f"baseline {name}.min_speedup is not an object; ignored")
            expectations = {}
    backends = replay.get("backends")
    if not isinstance(backends, dict) or not backends:
        failures.append(f"{name} recorded no per-backend results")
        return
    for backend, result in backends.items():
        speedup = result.get("speedup") if isinstance(result, dict) else None
        expected = expectations.get(backend)
        if not usable_number(speedup):
            message = f"{name} backend {backend}: unusable speedup {speedup!r}"
            if usable_number(expected):
                # An unenforceable floor must fail, not warn - a gate
                # that silently skips is a gate that masks regressions.
                failures.append(f"{message} - the min_speedup floor "
                                f"({expected:.2f}x) cannot be enforced")
            else:
                warnings.append(message)
            continue
        line = f"{name} backend {backend}: {speedup:.2f}x vs scalar"
        if usable_number(expected) and speedup < expected:
            failures.append(f"{line} is below the floor {expected:.2f}x")
        else:
            print(line)
    # A floored backend that vanished from the bench output entirely
    # would otherwise dodge its floor.
    for backend, expected in expectations.items():
        if usable_number(expected) and backend not in backends:
            failures.append(
                f"{name} backend {backend} has a min_speedup floor "
                f"({expected:.2f}x) but recorded no result")

    # Ceiling on the time outside the kernels, as a share of the
    # replay's profiled time: it catches the epilogue sweeps slowing
    # down relative to the kernels on any runner.
    ceiling = base.get("max_epilogue_share") if isinstance(base, dict) else None
    if ceiling is not None:
        share = replay.get("epilogue_share")
        if not usable_number(ceiling) or ceiling >= 1:
            failures.append(f"baseline {name}.max_epilogue_share is unusable "
                            f"({ceiling!r})")
        elif not usable_number(share):
            failures.append(f"{name} has no usable epilogue_share "
                            f"({share!r}) - the max_epilogue_share "
                            f"ceiling ({ceiling:.3f}) cannot be enforced")
        else:
            line = (f"{name} epilogue share: {share:.3f} of the profiled "
                    f"time")
            if share > ceiling:
                failures.append(f"{line} exceeds the ceiling {ceiling:.3f}")
            else:
                print(line)

    # Informational cross-PR tracking: single-thread scalar time per
    # sample vs the recorded reference measurement. Stored in the
    # merged artifact (speedup_vs_reference) so the history of the
    # shared per-element paths (staging, LUT) is queryable.
    reference = (base.get("reference_scalar_ms_per_sample")
                 if isinstance(base, dict) else None)
    measured = replay.get("scalar_ms_per_sample")
    if usable_number(reference) and usable_number(measured):
        ratio = reference / measured
        replay["speedup_vs_reference"] = round(ratio, 3)
        print(f"{name} scalar: {measured:.4f} ms/sample "
              f"({ratio:.2f}x vs recorded reference {reference:.4f})")
    elif usable_number(reference):
        warnings.append(
            f"{name} has no usable scalar_ms_per_sample; reference "
            f"comparison skipped")


def check_cold_start(fig9, baseline, failures, warnings):
    cold = fig9.get("artifact_cold_start")
    if not isinstance(cold, dict):
        failures.append(
            "fig9 JSON has no artifact_cold_start section - did "
            "bench_fig9_energy run its plan-artifact phase?")
        return
    if not cold.get("bit_identical", False):
        failures.append(
            "artifact_cold_start reported bit_identical: false - the "
            "mmap-loaded engine diverged from the compiled one")
    compile_ms = cold.get("compile_ms")
    load_ms = cold.get("load_ms")
    speedup = cold.get("speedup")
    for label, value in (("compile_ms", compile_ms), ("load_ms", load_ms),
                         ("speedup", speedup)):
        if not usable_number(value):
            failures.append(
                f"artifact_cold_start reported unusable {label}: {value!r}")
            return

    base = baseline.get("artifact_cold_start")
    if not isinstance(base, dict):
        warnings.append(
            "skip: bench/baseline.json has no artifact_cold_start entry; "
            "cold-start floor not enforced - add one via the refresh "
            "workflow")
        return
    floor = base.get("min_speedup")
    if not usable_number(floor):
        failures.append(
            f"baseline artifact_cold_start.min_speedup is unusable "
            f"({floor!r}); the floor would be a no-op")
        return
    line = (f"artifact_cold_start: load {load_ms:.3f} ms vs build "
            f"{compile_ms:.2f} ms ({speedup:.2f}x)")
    if speedup < floor:
        failures.append(
            f"{line} is below the floor {floor:.2f}x - artifact loading "
            f"is not meaningfully faster than recompiling")
    else:
        print(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--serve", required=True,
                        help="bench_serve_throughput JSON output")
    parser.add_argument("--fig9", required=True,
                        help="bench_fig9_energy JSON output")
    parser.add_argument("--baseline", required=True,
                        help="checked-in bench/baseline.json")
    parser.add_argument("--out", required=True,
                        help="merged artifact to write (BENCH_<sha>.json)")
    parser.add_argument("--sha", default="",
                        help="commit sha recorded in the artifact")
    args = parser.parse_args()

    serve = load(args.serve)
    fig9 = load(args.fig9)
    baseline = load(args.baseline)

    failures = []
    warnings = []

    check_throughput(serve, baseline, failures, warnings)
    check_http(serve, baseline, failures, warnings)
    check_http_tiered(serve, baseline, failures, warnings)
    check_replay("fig9_replay", fig9, baseline, failures, warnings)
    check_replay("fig9_cnn_replay", fig9, baseline, failures, warnings)
    check_cold_start(fig9, baseline, failures, warnings)

    # Written after the checks so the artifact carries their
    # annotations (speedup_vs_reference); it is written on failure
    # too — CI uploads it with always().
    merged = {"sha": args.sha}
    merged.update(serve)
    merged.update(fig9)
    with open(args.out, "w") as fh:
        json.dump(merged, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    for warning in warnings:
        print(f"WARNING: {warning}")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
