import signal
import time

import hostspeed
import pytest


def _speed(times, samples):
    speed = hostspeed.HostSpeed.__new__(hostspeed.HostSpeed)
    speed.times, speed.samples = list(times), list(samples)
    speed.reference_s = hostspeed.REFERENCE_S
    return speed


def test_factor_is_reference_over_the_median_sample_in_the_window():
    ref = hostspeed.REFERENCE_S
    # samples every 0.25 s; the host is twice as slow from t = 10 on
    times = [0.25 * i for i in range(80)]
    samples = [ref if t < 10.0 else 2.0 * ref for t in times]
    speed = _speed(times, samples)
    assert speed.factor(3.0, 3.1) == pytest.approx(1.0)
    assert speed.factor(15.0, 15.2) == pytest.approx(0.5)
    # a latency taken on the slow host reads as on the reference host
    assert 0.2 * speed.factor(15.0, 15.2) == pytest.approx(0.1)


def test_factor_ignores_a_stray_sample():
    ref = hostspeed.REFERENCE_S
    times = [0.25 * i for i in range(20)]
    samples = [ref] * 20
    samples[10] = 5.0 * ref
    assert _speed(times, samples).factor(2.5, 2.5) == pytest.approx(1.0)


def test_factor_falls_back_to_the_nearest_samples():
    ref = hostspeed.REFERENCE_S
    speed = _speed([0.0, 100.0, 101.0, 102.0], [ref, 2 * ref, 2 * ref,
                                                4 * ref])
    # nothing within the window of t = 50: the three nearest samples
    assert speed.factor(50.0, 50.0) == pytest.approx(0.5)


def test_in_flight_samples_are_timed_and_the_handler_restored():
    before = signal.getsignal(signal.SIGALRM)
    speed = hostspeed.HostSpeed()
    t0 = time.perf_counter()
    with speed.during() as taken:
        while time.perf_counter() - t0 < hostspeed.IN_FLIGHT_AFTER_S + 0.3:
            sum(range(1000))
    assert len(taken) >= 1 and len(speed.samples) == len(taken)
    assert all(0 < t < 1.0 for t in taken)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_two_thread_samples_are_scaled_to_two_kernels():
    speed = hostspeed.HostSpeed(threads=2)
    try:
        speed.sample()
    finally:
        speed.close()
    assert speed.reference_s == 2 * hostspeed.REFERENCE_S
    assert len(speed.samples) == 1 and speed.samples[0] > 0
    assert speed.factor(0.0, 0.0) == pytest.approx(
        2 * hostspeed.REFERENCE_S / speed.samples[0])
