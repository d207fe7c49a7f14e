"""One benchmark invocation: import the CLI, run it once, write a report.

    python3 bench/child.py REPORT MODE INVOCATION -- <crystalstat argv>

MODE is one of

  plain   no instrumentation; the timed run.  A fixed host-speed probe
          (probe() below) runs just before and just after ``cli.main``.
  spans   every public function and public-class constructor of the package
          is wrapped in a span, and the name is rebound in every
          ``crystalstat`` module namespace that holds it, so calls between
          modules and inside a module both pass through the wrapper.  No
          source file changes.
  memory  tracemalloc runs, and the functions in MEMORY_FUNCTIONS record
          the peak traced memory each call adds above what was live when it
          started.

REPORT receives one JSON object: the monotonic clock (shared with the parent
process on Linux) when the import finished and when ``cli.main`` started and
returned, the exit code, the probe times, and the spans or per-call memory
peaks.  The parent times the process start itself, so ``setup_s`` covers
interpreter start-up plus ``import crystalstat.cli``.
"""

import json
import sys
import time

MEMORY_FUNCTIONS = (
    ("fields", "gaussian_ensemble"),
    ("dynamics", "evolve_ensemble"),
    ("stats", "empirical_covariance"),
)


def probe():
    """Seconds taken by a fixed mix of array streaming, FFTs and interpreter work.

    It uses no crystalstat code, so a change to the package cannot move it;
    it moves with the speed the shared host gives this process at the time.
    """
    import numpy as np

    # A few MB at most, so that it never sets the child's peak RSS.
    t0 = time.perf_counter()
    a = np.arange(250_000, dtype=float)
    for _ in range(64):
        np.multiply(a, 1.0001, out=a)
        np.add(a, 1.0, out=a)
        np.sqrt(a, out=a)
    z = np.random.default_rng(0).standard_normal((4, 128, 128))
    for _ in range(64):
        z = np.fft.ifftn(np.fft.fftn(z, axes=(1, 2)), axes=(1, 2)).real
    total = 0
    for i in range(600_000):
        total += i * i
    for _ in range(10):
        objects = [{"i": i} for i in range(10_000)]
    del a, z, objects
    return time.perf_counter() - t0


def _package_modules():
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "crystalstat" or name.startswith("crystalstat."))}


def _rebind(original, replacement):
    """Point every crystalstat module global that is `original` at `replacement`."""
    for mod in _package_modules().values():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _layer_name(module_name):
    return module_name.rsplit(".", 1)[-1]


def install_spans(spans, invocation):
    """Wrap public callables; append (name, start, end, parent, invocation) to spans."""
    stack = []
    clock = time.perf_counter

    def wrap(name, fn):
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, invocation)
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    seen = set()
    for mod_name, mod in sorted(_package_modules().items()):
        layer = _layer_name(mod_name)
        for public in getattr(mod, "__all__", ()):
            obj = getattr(mod, public, None)
            if obj is None or id(obj) in seen:
                continue
            if getattr(obj, "__module__", None) != mod_name:
                continue  # re-exported; wrapped where it is defined
            seen.add(id(obj))
            name = f"{layer}.{public}"
            if isinstance(obj, type):
                if "__init__" in vars(obj):
                    obj.__init__ = wrap(name, obj.__init__)
            elif callable(obj):
                _rebind(obj, wrap(name, obj))


def install_memory(peaks):
    """Record, per call, the traced-memory peak above the level at entry."""
    import tracemalloc

    def wrap(name, fn):
        def measured(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                peaks.append((name, peak - base))
        return measured

    modules = _package_modules()
    for layer, func in MEMORY_FUNCTIONS:
        original = getattr(modules[f"crystalstat.{layer}"], func)
        _rebind(original, wrap(f"{layer}.{func}", original))
    tracemalloc.start()


def main(argv):
    report_path, mode, invocation, sep, *cli_argv = argv
    if sep != "--" or mode not in ("plain", "spans", "memory"):
        raise SystemExit("usage: child.py REPORT plain|spans|memory INVOCATION -- ARGV...")
    import crystalstat.cli as cli
    t_imported = time.monotonic()

    spans, peaks, probes = [], [], []
    if mode == "spans":
        install_spans(spans, int(invocation))
    elif mode == "memory":
        install_memory(peaks)
    else:
        probes.append(probe())

    t_start = time.monotonic()
    code = cli.main(cli_argv)
    t_end = time.monotonic()
    if mode == "plain":
        probes.append(probe())

    with open(report_path, "w") as fh:
        json.dump({"imported": t_imported, "start": t_start, "end": t_end,
                   "exit": code, "probes": probes, "spans": spans, "peaks": peaks}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
