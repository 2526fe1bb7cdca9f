"""Times to verdict in probe lengths."""

import signal
import time

import pytest

import run
from hostspeed import SpeedProbe, multiplier
from workloads import WORKLOADS


def test_probe_builds_a_fixed_function():
    assert [multiplier(width) for width in (3, 4, 3)] == [137, 678, 137]


def test_probe_runs_on_a_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    with probe.running():
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.starts) == len(probe.wall) == len(probe.cpu) >= 4
    assert probe.starts == sorted(probe.starts)


def test_probe_time_inside_and_near_an_interval():
    probe = SpeedProbe()
    ms = 1_000_000
    probe.starts = [0, 50 * ms, 100 * ms, 150 * ms, 400 * ms]
    probe.wall = [1, 2, 3, 4, 5]
    probe.cpu = [10, 20, 30, 40, 50]
    assert probe.inside(40 * ms, 120 * ms) == (5, 50)
    assert probe.inside(160 * ms, 170 * ms) == (0, 0)
    # Within 100 ms: the probes at 50..150 ms.
    assert probe.speed(140 * ms, 150 * ms) == (3, 30)
    # None within 100 ms: the nearest one on each side.
    assert probe.speed(260 * ms, 270 * ms) == (4.5, 45)


def test_case_time_is_the_median_over_passes_of_probe_ratios():
    probe = SpeedProbe()
    probe.starts, probe.wall, probe.cpu = [0, 10**9], [10**8, 10**8], \
        [2 * 10**8, 2 * 10**8]
    first, second, third = WORKLOADS["back-image"]
    passes = [run.PassResult(samples=[(first.key, 0.4, 0.4, 0, 1),
                                      (second.key, 0.2, 0.2, 0, 1)]),
              run.PassResult(samples=[(first.key, 0.8, 0.4, 0, 1)]),
              run.PassResult(samples=[(first.key, 0.2, 0.4, 0, 1)])]
    wall, cpu = run.case_ref_times([first, third, second, first], passes,
                                   probe)
    assert wall == pytest.approx([4.0, 2.0, 4.0])
    assert cpu == pytest.approx([2.0, 1.0, 2.0])


def test_untraced_pass_takes_probe_time_out_of_its_cases(repro):
    probe = SpeedProbe()
    cases = WORKLOADS["back-image"][:1]
    outcome = run.run_pass(repro, cases, traced=False, probe=probe)
    (key, seconds, _cpu, start, end), = outcome.samples
    inside, _ = probe.inside(start, end)
    assert inside > 0
    assert seconds == pytest.approx((end - start - inside) / 1e9)
    assert outcome.seconds == pytest.approx(seconds)
