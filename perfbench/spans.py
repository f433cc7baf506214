"""Spans recorded at twistlab's module boundaries, from outside the package.

The tracer replaces, in each layer module's namespace, the functions
that layer defines and the names it imports from the layer below, so a
call is recorded under the namespace it was resolved in: the
``remove_curls`` found in ``twistlab.kauffman`` counts calls made from
kauffman.  LaurentPoly2's arithmetic methods are wrapped on the class.
Nothing under ``src/`` is edited; ``uninstall`` puts every original back.

Each span has a site (which wrapper), start, end, parent span and op id.
Spans are kept in flat arrays while the run lasts and saved at the end.
Self time is a span's duration minus the part of it its children cover.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# Public names (no leading underscore) defined in a layer module are
# wrapped, and so are these private ones: the helpers kauffman imports
# from diagram, and kauffman's own recursion.
_PRIVATE = {
    "diagram": ("_rotate_crossings", "_traversal_entries", "_self_crossing_signs"),
    "kauffman": ("_lambda", "_resolve"),
}
# Only the entry point of the CLI layer is a span; its subcommands are
# the CLI's own work.
_ONLY = {"cli": ("main",)}
_LAURENT = {
    "__add__": "add", "__sub__": "sub", "__neg__": "neg",
    "__mul__": "mul", "__rmul__": "mul", "shift": "shift", "mirror_a": "mirror",
}

OP_SETUP = 0  # op id of spans made while inputs are generated
OP_NONE = -1  # op id of spans made by the benchmark's own checks


def _targets(mods) -> dict:
    """Original function -> span name, for every function to wrap."""
    out = {}
    for layer, mod in mods.items():
        names = _ONLY.get(layer) or [
            n for n, v in vars(mod).items()
            if not n.startswith("_") and callable(v) and not isinstance(v, type)
            and getattr(v, "__module__", None) == mod.__name__
        ] + list(_PRIVATE.get(layer, ()))
        for n in names:
            out[getattr(mod, n)] = f"{layer}.{n}"
    return out


class Spans:
    """Flat span storage: one array per field, sites named in a table."""

    def __init__(self):
        self.sites: list[tuple[str, str]] = []  # (caller namespace, span name)
        self.site = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.errors: dict[int, int] = {}

    def __len__(self):
        return len(self.site)

    def add_site(self, caller: str, name: str) -> int:
        self.sites.append((caller, name))
        return len(self.sites) - 1

    def append(self, site, start, end, parent, op) -> int:
        """Add a span; returns its index."""
        self.site.append(site)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        return len(self.site) - 1

    def save(self, path) -> None:
        """Write, gzipped, a JSON header line followed by the five raw arrays."""
        head = {"sites": self.sites, "spans": len(self), "errors": self.errors,
                "arrays": ["site:i", "start:q", "end:q", "parent:i", "op:i"],
                "byteorder": sys.byteorder}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(head).encode("utf-8") + b"\n")
            for arr in (self.site, self.start, self.end, self.parent, self.op):
                fh.write(arr.tobytes())

    @classmethod
    def load(cls, path) -> "Spans":
        out = cls()
        with gzip.open(path, "rb") as fh:
            head = json.loads(fh.readline())
            out.sites = [tuple(s) for s in head["sites"]]
            out.errors = {int(k): v for k, v in head["errors"].items()}
            for arr in (out.site, out.start, out.end, out.parent, out.op):
                arr.frombytes(fh.read(arr.itemsize * head["spans"]))
        return out


class Tracer:
    """Installs recording wrappers; ``op`` tags the spans that follow."""

    def __init__(self, mods, laurent_cls):
        self.mods = mods
        self.laurent_cls = laurent_cls
        self.spans = Spans()
        self.op = OP_SETUP
        self._stack = [-1]
        self._made: list | None = None
        self._installed = False

    def _wrap(self, fn, caller: str, name: str):
        sp = self.spans
        sid = sp.add_site(caller, name)
        site, start, end, parent, ops = sp.site, sp.start, sp.end, sp.parent, sp.op
        stack, errors, clock = self._stack, sp.errors, time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(site)
            site.append(sid)
            parent.append(stack[-1])
            ops.append(tracer.op)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[sid] = errors.get(sid, 0) + 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _patches(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every wrapped name."""
        out = []
        targets = _targets(self.mods)
        for layer, mod in self.mods.items():
            for attr, val in list(vars(mod).items()):
                if callable(val) and val in targets:
                    out.append((mod, attr, val, self._wrap(val, layer, targets[val])))
        made = {}
        for attr, short in _LAURENT.items():
            fn = self.laurent_cls.__dict__[attr]
            if fn not in made:
                made[fn] = self._wrap(fn, "kauffman", f"kauffman.laurent.{short}")
            out.append((self.laurent_cls, attr, fn, made[fn]))
        return out

    def install(self) -> None:
        """Put the wrappers in place; they are made once and reused."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        if self._made is None:
            self._made = self._patches()
        for owner, attr, _, wrapper in self._made:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            for owner, attr, orig, _ in self._made:
                setattr(owner, attr, orig)
            self._installed = False

    def span(self, name: str):
        """Context manager recording one span under the benchmark's own name."""
        return _BenchSpan(self, self._site_for(name))

    def _site_for(self, name: str) -> int:
        key = ("bench", name)
        if key not in self.spans.sites:
            return self.spans.add_site(*key)
        return self.spans.sites.index(key)


class _BenchSpan:
    def __init__(self, tracer: Tracer, sid: int):
        self.tracer, self.sid = tracer, sid

    def __enter__(self):
        t, sp = self.tracer, self.tracer.spans
        self.idx = sp.append(self.sid, 0, 0, t._stack[-1], t.op)
        t._stack.append(self.idx)
        sp.start[self.idx] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans.end[self.idx] = time.perf_counter_ns()
        t._stack.pop()
        return False


def self_times(sp: Spans) -> array:
    """Self time of every span, in the clock's units.

    A child's interval is clipped to its parent's, and overlapping
    children are counted once, so a parent's self time is its duration
    minus the union of its children.  Spans are stored in start order,
    which is the order children of one parent are merged in.
    """
    n = len(sp)
    start, end, parent = sp.start, sp.end, sp.parent
    covered = array("q", bytes(8 * n))
    reach = array("q", bytes(8 * n))  # furthest child end merged so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        s = max(start[i], start[p], reach[p])
        e = min(end[i], end[p])
        if e > s:
            covered[p] += e - s
        if e > reach[p]:
            reach[p] = e
    return array("q", (end[i] - start[i] - covered[i] for i in range(n)))


def summarize(sp: Spans, selfs) -> dict:
    """Per-site totals split by phase: ops (op id >= 1) and set-up."""
    sites = len(sp.sites)
    calls, self_ns, setup_ns = [0] * sites, [0] * sites, [0] * sites
    for i in range(len(sp)):
        o = sp.op[i]
        s = sp.site[i]
        if o > OP_SETUP:
            calls[s] += 1
            self_ns[s] += selfs[i]
        elif o == OP_SETUP:
            setup_ns[s] += selfs[i]
    return {"calls": calls, "self_ns": self_ns, "setup_ns": setup_ns}
