"""Host-speed sampling, so that times can be rescaled to one reference speed.

The benchmark runs on a small virtual machine whose speed drifts by up to
1.8x between stretches of a fraction of a second to half a minute; wall and
CPU time stretch alike, and the two vCPUs drift independently.  So the speed
is sampled in the thread that does the work, while it does it: a `Sampler`
interrupts the main thread periodically with SIGALRM and times a fixed
probe.  A probe's duration over its reference duration is the host's
slowness at that moment, and

    seconds / mean(slowness sampled during the operation)

is the operation's time on the reference host.  The probes cost about 1.5%
of each operation's time, the same on every commit.

A CLI call spends most of its time importing, so its probe is pure Python
(`python_sampler`); it uses only the standard library, because it may fire
in the middle of an import, where importing anything could deadlock.  The
library calls of `crosscheck` slow down more than that probe when the host
is busy.  They make many numpy calls on short arrays from recursive Python
code, and are sampled with a probe of the same kind (`numpy_sampler`); of
the probes tried on them, those with numpy work on long arrays tracked them
worst.
"""

import math
import signal
import time

# each probe's duration on the reference host
PYTHON_REFERENCE_S = 0.0012
NUMPY_REFERENCE_S = 0.0035


def probe_python():
    """Seconds a fixed piece of pure-Python work takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(6000):
        acc += math.sqrt(i) * (i % 7)
        table[i & 63] = acc
    sorted(table.values())
    return time.perf_counter() - t0


def _gauss_panels(f, lo, hi, depth, rule):
    """Integral of f over [lo, hi] by 2**depth 16-node Gauss panels."""
    if depth == 0:
        nodes, weights = rule
        half = 0.5 * (hi - lo)
        return half * float(weights @ f(lo + half * (nodes + 1.0)))
    mid = 0.5 * (lo + hi)
    return (_gauss_panels(f, lo, mid, depth - 1, rule)
            + _gauss_panels(f, mid, hi, depth - 1, rule))


def probe_numpy(np, rule):
    """Seconds a fixed piece of numpy work on short arrays takes now: many
    calls in a loop, then a recursive panel quadrature."""
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 16)
    for _ in range(600):
        np.exp(-x * x).sum()
    _gauss_panels(lambda t: np.exp(-t * t), 0.0, 3.0, 7, rule)
    return time.perf_counter() - t0


class Sampler:
    """Context manager that times `probe` every `period_s` of wall time.

    `samples` collects (perf_counter time, slowness) pairs.  Python runs
    the handler between bytecodes of the main thread, so a probe due during
    a long C call runs when the call returns.
    """

    def __init__(self, probe, reference_s, period_s):
        self.probe = probe
        self.reference_s = reference_s
        self.period_s = period_s
        self.samples = []

    def _on_alarm(self, signum, frame):
        t = time.perf_counter()
        self.samples.append((t, self.probe() / self.reference_s))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def slowness(self, start=-math.inf, end=math.inf):
        return [v for t, v in self.samples if start <= t <= end]


def python_sampler():
    return Sampler(probe_python, PYTHON_REFERENCE_S, 0.1)


def numpy_sampler(np):
    rule = np.polynomial.legendre.leggauss(16)
    return Sampler(lambda: probe_numpy(np, rule), NUMPY_REFERENCE_S, 0.25)


def normalise(seconds, slowness):
    """`seconds` rescaled to the reference host speed."""
    if not slowness:
        raise ValueError("no host-speed probe ran during the operation")
    return seconds * len(slowness) / sum(slowness)
