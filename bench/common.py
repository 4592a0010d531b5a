"""Pieces shared by every workload: locating the library, running child
processes, the probe of the host's speed, and the tracer that times each
call into a diagcf layer."""

from __future__ import annotations

import collections
import importlib
import os
import selectors
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE_S = 0.001  # end-to-end timings are scaled to a host on which reference_kernel takes this
PROBE_INTERVAL_S = 0.05


class SetupError(Exception):
    """The checkout cannot run the benchmark (no sources, wrong import)."""


class Mismatch(Exception):
    """An op returned an answer that disagrees with its oracle."""


def load_library():
    """Import diagcf from this checkout's src/, never from anywhere else."""
    if not (SRC / "diagcf" / "__init__.py").is_file():
        raise SetupError(f"no diagcf sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("diagcf")
    if Path(lib.__file__).resolve().parent != SRC / "diagcf":
        raise SetupError(f"diagcf imported from {lib.__file__}, not from {SRC}")
    return lib


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class ChildResult(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes
    seconds: float
    max_rss_kb: int


def run_child(argv: list[str], env: dict[str, str]) -> ChildResult:
    """Run one child to completion; wall time and its own peak RSS.

    The child is reaped with wait4 so its resource usage is its own and
    not the running maximum over every child this process has had.
    """
    start = time.perf_counter()
    with subprocess.Popen(
        argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=env, cwd=ROOT,
    ) as proc:
        chunks: dict = {proc.stdout: [], proc.stderr: []}
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                for key, _ in sel.select():
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        proc.returncode,
        b"".join(chunks[proc.stdout]),
        b"".join(chunks[proc.stderr]),
        time.perf_counter() - start,
        usage.ru_maxrss,
    )


def reference_kernel() -> int:
    """A fixed pure-Python load of about a millisecond on a Xeon core of
    the 2020s: Euclid on big integers, Fraction arithmetic, int-to-str and
    a small dict, the kinds of work diagcf does. It calls no diagcf code,
    so no change to the library moves it; only the host's speed does."""
    a, b = 3**200 + 1, 2**300 + 7
    out = 0
    for _ in range(30):
        x, y = a, b
        while y:
            x, y = y, x % y
        f = Fraction(a, b) + Fraction(1, 7)
        out += len(str(f.numerator)) + len({i: i for i in range(50)})
    return out


class HostSpeed:
    """How fast the host runs this process over a run.

    A shared host's speed drifts by a third and more over minutes, and
    with it every timing. So the timed loop runs the reference kernel at
    most every PROBE_INTERVAL_S, spread over the whole run, and
    end-to-end timings are multiplied by `factor`: REFERENCE_S over the
    kernel's mean time. A slower host makes the kernel and the ops slower
    together, and the factor cancels it; a slower library leaves the
    kernel alone, and the scaled timings show it in full.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._due = 0.0

    def probe(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self._due = end + PROBE_INTERVAL_S

    def maybe_probe(self) -> None:
        if time.perf_counter() >= self._due:
            self.probe()

    @property
    def factor(self) -> float:
        return REFERENCE_S / statistics.fmean(self.samples)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Times every call the benchmark makes into a diagcf layer.

    Untraced, it only sums each op's time inside diagcf (the op's
    latency). Traced, it also keeps one span per call, parented by the
    op's own span: (name, start, end, parent index, op id). Spans stay
    in memory until the run writes them out.
    """

    def __init__(self, keep_spans: bool = False):
        self.keep_spans = keep_spans
        self.spans: list[list] = []
        self.counters: collections.Counter = collections.Counter()
        self.ops = 0
        self.op_seconds = 0.0
        self._op_span: int | None = None

    def begin_op(self, kind: str) -> None:
        self.op_seconds = 0.0
        if self.keep_spans:
            self._op_span = len(self.spans)
            self.spans.append([f"bench.{kind}", time.perf_counter(), None, None, self.ops])

    def end_op(self) -> float:
        if self.keep_spans:
            self.spans[self._op_span][2] = time.perf_counter()
            self._op_span = None
        self.ops += 1
        return self.op_seconds

    def call(self, name: str, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        except Exception:
            self.counters[f"{layer_of(name)}.failed"] += 1
            raise
        finally:
            end = time.perf_counter()
            self.op_seconds += end - start
            if self.keep_spans:
                self.spans.append([name, start, end, self._op_span, self.ops])

    def count(self, name: str, n: int) -> None:
        self.counters[name] += n
