"""Per-function spans around the package's public functions.

The tracer wraps every callable named in the `__all__` of each layer
module, and patches the wrapper into every `resonance_atlas` module
namespace that binds the original, so calls between modules and within a
module both go through it.  Classes are left alone.  Functions that a
later version adds or removes are picked up or skipped automatically.

Self time is the calling thread's CPU time (time.thread_time) inside a
function minus that of its traced children on the same thread.  It is
CPU time, not wall time, so a thread that waits -- the main thread of
`sample` blocked on its worker threads, or any thread waiting for the
interpreter lock -- adds nothing; the span stack is kept per thread
because `sample` classifies on worker threads.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter

LAYERS = ("linalg", "algebra", "spectra", "geometry", "stratification", "cli")
PACKAGE = "resonance_atlas"


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tallies: list[dict[str, list]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _thread_state(self) -> tuple[list, dict]:
        """This thread's span stack and its tally {key: [calls, self_s]}."""
        loc = self._local
        loc.stack, loc.tally = [], {}
        with self._lock:
            self._tallies.append(loc.tally)
        return loc.stack, loc.tally

    def _wrap(self, key: str, fn):
        clock = time.thread_time
        loc = self._local

        @functools.wraps(fn)
        def span(*args, **kwargs):
            try:
                stack, tally = loc.stack, loc.tally
            except AttributeError:
                stack, tally = self._thread_state()
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                entry = tally.get(key)
                if entry is None:
                    tally[key] = [1, dt - child]
                else:
                    entry[0] += 1
                    entry[1] += dt - child

        return span

    def install(self) -> list[str]:
        """Wrap the public functions of every loaded layer; return their keys."""
        wrappers: dict[int, tuple[object, object]] = {}
        keys = []
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if callable(fn) and not isinstance(fn, type) and id(fn) not in wrappers:
                    keys.append(f"{layer}.{name}")
                    wrappers[id(fn)] = (fn, self._wrap(keys[-1], fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return keys

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def totals(self) -> tuple[Counter, Counter]:
        calls, self_s = Counter(), Counter()
        with self._lock:
            for tally in self._tallies:
                for key, (n, t) in tally.items():
                    calls[key] += n
                    self_s[key] += t
        return calls, self_s
