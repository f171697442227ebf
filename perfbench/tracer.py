"""Layer tracing for the benchmark, done entirely from outside the package.

``Tracer.install`` wraps every function and class method that forms a layer
boundary: the public names of each layer module, plus private names that
another module imports.  Module-level names are rebound in every
``monoidtopos`` module that holds them (the defining module included, so
calls inside a module are seen too); methods are replaced on their class.
``Tracer.uninstall`` puts the originals back.

A span opens when a call enters a layer from a different layer (or from
the benchmark) and closes when it returns.  Calls that stay inside the
layer on top of the stack are counted but open no span, so a layer's busy
time is never counted twice.  Self time is a span's duration minus the
spans of other layers it contains, so the self times of all layers plus
the benchmark's own time between spans add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("monoid", "corpus", "mset", "classical", "quantum", "linalg",
          "strings", "reduction", "context", "dsl", "cli")

# Counts specific to one layer, reported next to calls/busy_s/self_s.
LAYER_COUNTS = (
    "monoid.implies_calls", "monoid.ideals_enumerated", "monoid.closure_elements",
    "corpus.closure_attempts", "corpus.monoids_kept",
    "mset.constructions", "mset.law_checks", "mset.equivariant_maps",
    "linalg.eig_calls", "linalg.orthonormalize_calls",
    "strings.strings_enumerated", "strings.members_kept",
    "reduction.reduce_calls",
    "context.polar_calls", "context.universe_strings",
    "dsl.parses", "dsl.bytes_in",
    "cli.requests", "cli.bytes_out",
)
# Metrics computed from the counts and the spans, with the run's own
# trace.dominant_share and trace.overhead_s.
DERIVED = (("corpus.yield_ratio", "ratio"), ("reduction.cache_hit_ratio", "ratio"),
           ("trace.unspanned_s", "s"), ("trace.dominant_share", "ratio"),
           ("trace.overhead_s", "s"))


_PACKAGE = "monoidtopos"
SPAN_CAP = 20_000


def metric_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.busy_s": "s",
                      f"{layer}.self_s": "s"})
    for name in LAYER_COUNTS:
        units[name] = "B" if ".bytes_" in name else "count"
    units.update(DERIVED)
    return units


class Tracer:
    """Spans and counts for one traced iteration at a time."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list[list] = []
        self.request = 0
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._next_id = 0
        self._restore: list[tuple] = []
        self.recording = False
        self.reset()

    # -- accumulators -------------------------------------------------------

    def reset(self):
        """Start a new iteration: clear every per-iteration accumulator."""
        self.calls = dict.fromkeys(LAYERS, 0)
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.active = dict.fromkeys(LAYERS, 0)
        self.counts = dict.fromkeys(LAYER_COUNTS, 0)
        self.memo_misses = 0
        self.memo_observed = False
        self.unspanned = 0.0
        self.idle_since = self.clock()

    def count(self, name: str, n: int = 1):
        self.counts[name] += n

    def begin_op(self, request: int):
        """An operation of the workload starts; time until the first span
        belongs to the benchmark itself.  Calls made outside operations,
        such as output checks, are not traced."""
        self.request = request
        self.recording = True
        self.idle_since = self.clock()

    def end_op(self):
        self.unspanned += self.clock() - self.idle_since
        self.recording = False
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans still open at end of operation")

    def enter(self, layer: str, name: str):
        now = self.clock()
        stack = self.stack
        if stack:
            parent = stack[-1][3]
        else:
            parent = 0
            self.unspanned += now - self.idle_since
        self._next_id += 1
        stack.append([layer, now, 0.0, self._next_id, parent, name])
        self.active[layer] += 1
        self.calls[layer] += 1

    def exit(self):
        now = self.clock()
        layer, start, child, span_id, parent, name = self.stack.pop()
        duration = now - start
        self.self_time[layer] += duration - child
        self.active[layer] -= 1
        if self.active[layer] == 0:
            self.busy[layer] += duration
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.idle_since = now
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, self.request, name, start, now))
        else:
            self.spans_dropped += 1

    def snapshot(self) -> dict:
        """Per-layer metrics of the iteration since the last reset."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.busy_s"] = self.busy[layer]
            out[f"{layer}.self_s"] = self.self_time[layer]
        out.update(self.counts)
        attempts = self.counts["corpus.closure_attempts"]
        out["corpus.yield_ratio"] = (self.counts["corpus.monoids_kept"] / attempts
                                     if attempts else 0.0)
        reduces = self.counts["reduction.reduce_calls"]
        out["reduction.cache_hit_ratio"] = (
            1.0 - self.memo_misses / reduces
            if reduces and self.memo_observed else 0.0)
        out["trace.unspanned_s"] = self.unspanned
        return out

    def write_spans(self, path):
        """Write the recorded spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "request": request,
                                     "name": name, "start": start, "end": end}) + "\n")

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every layer boundary of the loaded package."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == _PACKAGE or name.startswith(_PACKAGE + "."))}
        for layer in LAYERS:
            modules.setdefault(f"{_PACKAGE}.{layer}",
                               importlib.import_module(f"{_PACKAGE}.{layer}"))
        imported_elsewhere = {id(obj) for name, mod in modules.items()
                              for obj in vars(mod).values()
                              if getattr(obj, "__module__", name) != name}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"{_PACKAGE}.{layer}"]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if name.startswith("_") and id(obj) not in imported_elsewhere:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{name}"))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(mod, name, wrappers[id(obj)][1])
                    self._restore.append((mod, name, obj))

    def uninstall(self):
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _wrap_class(self, cls, layer):
        for attr, member in list(vars(cls).items()):
            if attr != "__init__" and attr.startswith("_"):
                continue
            label = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                replacement = self._wrap(member, layer, label)
            elif isinstance(member, (staticmethod, classmethod)):
                replacement = type(member)(self._wrap(member.__func__, layer, label))
            else:
                continue
            setattr(cls, attr, replacement)
            self._restore.append((cls, attr, member))

    def _wrap(self, fn, layer, label):
        hook = _HOOKS.get(label)
        callback_arg = _CALLBACK_ARGS.get(label)
        tracer = self
        stack = self.stack

        if inspect.isgeneratorfunction(fn):
            counter = _GENERATOR_COUNTS.get(label)

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    nested = not tracer.recording or (bool(stack) and stack[-1][0] == layer)
                    if not nested:
                        tracer.enter(layer, label)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        if not nested:
                            tracer.exit()
                    if counter and tracer.recording:
                        tracer.counts[counter] += 1
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            caller = stack[-1][0] if stack else None
            if callback_arg is not None:
                args, kwargs = tracer._wrap_callback(callback_arg, args, kwargs)
            if caller == layer:
                return hook(tracer, caller, fn, args, kwargs) if hook else fn(*args, **kwargs)
            tracer.enter(layer, label)
            try:
                return hook(tracer, caller, fn, args, kwargs) if hook else fn(*args, **kwargs)
            finally:
                tracer.exit()

        return traced

    def _wrap_callback(self, where, args, kwargs):
        """Give a callable argument defined in a layer module its own span,
        so a callback from one layer into another is a boundary too."""
        position, keyword = where
        if keyword in kwargs:
            kwargs = dict(kwargs)
            kwargs[keyword] = self._callback(kwargs[keyword])
        elif len(args) > position:
            args = args[:position] + (self._callback(args[position]),) + args[position + 1:]
        return args, kwargs

    def _callback(self, fn):
        module = getattr(fn, "__module__", "") or ""
        layer = module[len(_PACKAGE) + 1:] if module.startswith(_PACKAGE + ".") else None
        if layer not in LAYERS or not inspect.isfunction(fn):
            return fn
        return self._wrap(fn, layer, f"{layer}.{fn.__qualname__}")


# -- hooks: counts taken at specific boundaries -------------------------------


def _counting(name, amount=lambda args, result: 1):
    def hook(tracer, caller, fn, args, kwargs):
        result = fn(*args, **kwargs)
        tracer.counts[name] += amount(args, result)
        return result
    return hook


def _enumerate_ideals_hook(tracer, caller, fn, args, kwargs):
    fresh = getattr(args[0], "_ideals", None) is None
    result = fn(*args, **kwargs)
    if fresh:
        tracer.counts["monoid.ideals_enumerated"] += len(result)
    return result


def _closure_hook(tracer, caller, fn, args, kwargs):
    if caller == "corpus":
        tracer.counts["corpus.closure_attempts"] += 1
    result = fn(*args, **kwargs)
    tracer.counts["monoid.closure_elements"] += result.size
    return result


def _mset_init_hook(tracer, caller, fn, args, kwargs):
    result = fn(*args, **kwargs)
    mset = args[0]
    tracer.counts["mset.constructions"] += 1
    tracer.counts["mset.law_checks"] += mset.monoid.size ** 2 * len(mset.points)
    return result


def _reduce_hook(tracer, caller, fn, args, kwargs):
    memo = getattr(args[0], "_cache", None)
    letters = args[1] if len(args) > 1 else kwargs.get("letters")
    tracer.counts["reduction.reduce_calls"] += 1
    if isinstance(memo, dict) and isinstance(letters, (tuple, list)):
        tracer.memo_observed = True
        if tuple(letters) not in memo:
            tracer.memo_misses += 1
    return fn(*args, **kwargs)


def _parse_hook(tracer, caller, fn, args, kwargs):
    text = args[0] if args else kwargs.get("text", "")
    tracer.counts["dsl.parses"] += 1
    tracer.counts["dsl.bytes_in"] += len(text.encode("utf-8"))
    return fn(*args, **kwargs)


_HOOKS = {
    "monoid.heyting_implies": _counting("monoid.implies_calls"),
    "monoid.enumerate_left_ideals": _enumerate_ideals_hook,
    "monoid.submonoid_closure": _closure_hook,
    "corpus.random_monoids": _counting("corpus.monoids_kept", lambda a, r: len(r)),
    "mset.MSet.__init__": _mset_init_hook,
    "mset.equivariant_maps_to_ideals": _counting("mset.equivariant_maps",
                                                 lambda a, r: len(r)),
    "linalg.hermitian_eig": _counting("linalg.eig_calls"),
    "linalg.operator_norm": _counting("linalg.eig_calls"),
    "linalg.orthonormalize": _counting("linalg.orthonormalize_calls"),
    "strings.bounded_ideal": _counting("strings.members_kept",
                                       lambda a, r: len(r.members)),
    "reduction.ProjectorAlphabet.reduce": _reduce_hook,
    "context.polar_of_rays": _counting("context.polar_calls"),
    "context.polar_of_strings": _counting("context.polar_calls"),
    "context.StringUniverse.__init__": _counting("context.universe_strings",
                                                 lambda a, r: len(a[0].members)),
    "dsl.parse_spec": _parse_hook,
    "cli.main": _counting("cli.requests"),
}

# Positional index (counting self) and keyword of callable arguments that
# run code of another layer: the M-set action and the ideal predicate.
_CALLBACK_ARGS = {
    "mset.MSet.__init__": (3, "action"),
    "strings.bounded_ideal": (1, "predicate"),
}

_GENERATOR_COUNTS = {
    "strings.ProjStringMonoid.enumerate_strings": "strings.strings_enumerated",
}
