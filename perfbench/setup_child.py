"""Set-up measurement child: started as a fresh interpreter by run.py, it
imports xbar.cli and loads the shipped tables, then prints the path xbar
was imported from and the mean time of a pure-Python probe kernel sampled
every PROBE_INTERVAL_S while it did so (see speed.py for why)."""

import signal
import time

PROBE_INTERVAL_S = 0.01

samples = []


def _sample(signum, frame):
    start = time.thread_time()
    acc = 0
    for i in range(2000):
        acc += i * i
    samples.append(time.thread_time() - start)


signal.signal(signal.SIGALRM, _sample)
signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

import xbar.cli  # noqa: E402
import xbar.defaults  # noqa: E402

xbar.defaults.shipped_pair()
signal.setitimer(signal.ITIMER_REAL, 0.0)
print(xbar.cli.__file__, sum(samples) / max(len(samples), 1), len(samples), flush=True)
