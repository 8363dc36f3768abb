"""In-memory tracing of `linvar`'s public callables, for the traced run.

`install` replaces each traced callable, wherever a `linvar` module holds a
reference to it, with a wrapper that records a span: name, parent span,
start, end and phase.  The phase is "setup" while a round makes its inputs
and "ops" in its timed region.  Spans stay in memory; `layer_metrics` turns
them into calls and self time per callable (span duration minus the time
its direct child spans cover) and adds counts read off return values and
public attributes.  All of that covers the timed region alone, except that
the SETUP_LAYERS callables also get `setup.`-prefixed calls and self time
for the set-up phase.

A traced name that the program no longer has is skipped with a note, and
its metrics read 0, so the traced run survives refactors that remove it.
Untraced rounds never install it, so end-to-end metrics do not depend on it.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Callable, Optional


def _variable_count(terms, identity) -> int:
    return len(set(terms.term_variables(identity.lhs))
               | set(terms.term_variables(identity.rhs)))


def _instances(lv, base, identities) -> int:
    return sum(base.budget ** _variable_count(lv.terms, e) for e in identities)


# Observers add counts from a finished call: (lv, counts, args, result, parent).

def _on_build(lv, counts, args, result, parent):
    base = args[0]
    counts["saturation.atoms"] += base.size
    counts["saturation.instances"] += _instances(lv, base, base.theory.identities)


def _on_extend(lv, counts, args, result, parent):
    prev = args[0]
    counts["saturation.atoms"] += result.size
    counts["saturation.instances"] += _instances(
        lv, result, result.theory.identities[len(prev.theory.identities):])


def _on_chain(lv, counts, args, result, parent):
    if result is not None:
        counts["saturation.chain.steps"] += len(result[1])


def _on_iterate(lv, counts, args, result, parent):
    counts["derivatives.stages"] += len(result.stages)


def _on_classify(lv, counts, args, result, parent):
    # only reports that reach the caller; joins classify and discard
    if parent is None:
        counts["classification.certs"] += sum(
            1 for v in result.verdicts if v.derivation is not None)


def _on_find_model(lv, counts, args, result, parent):
    counts["models.found"] += result is not None


def _on_verify(lv, counts, args, result, parent):
    counts["rewriting.verify.steps"] += len(args[1].steps)


def _on_bfs(lv, counts, args, result, parent):
    counts["rewriting.proved"] += isinstance(result, lv.rewriting.Proved)


def _on_project(lv, counts, args, result, parent):
    counts["projection.out_steps"] += len(result.derivation.steps)


# (layer, dotted name inside the layer's module, observer)
TARGETS: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("saturation", "FlatFactBase", _on_build),
    ("saturation", "FlatFactBase.extend", _on_extend),
    ("saturation", "saturate", None),
    ("saturation", "saturate_extending", None),
    ("saturation", "FlatFactBase.shortest_chain", _on_chain),
    ("saturation", "entails_flat", None),
    ("saturation", "is_inconsistent", None),
    ("derivatives", "iterate", _on_iterate),
    ("derivatives", "weak_independence_profile", None),
    ("derivatives", "order_fact_set", None),
    ("classification", "classify", _on_classify),
    ("classification", "check_join_decomposition", None),
    ("models", "find_model", _on_find_model),
    ("models", "refute_entailment", None),
    ("rewriting", "verify_derivation", _on_verify),
    ("rewriting", "bfs_prove", _on_bfs),
    ("projection", "project_to_component", _on_project),
    ("dsl", "load_theory", None),
    ("theories", "validate", None),
    ("theories", "join_disjoint", None),
    ("theories", "theory_equal", None),
)

# layers whose set-up calls are reported too (they load and check theories)
SETUP_LAYERS = ("dsl", "theories")

COUNTS = ("saturation.atoms", "saturation.instances", "saturation.chain.steps",
          "derivatives.stages", "rewriting.verify.steps", "projection.out_steps")

# ratio name -> (numerator count, span whose calls are the base)
RATIOS = {
    "classification.cert_used_ratio": ("classification.certs",
                                       "saturation.FlatFactBase.shortest_chain"),
    "models.found_ratio": ("models.found", "models.find_model"),
    "rewriting.proved_ratio": ("rewriting.proved", "rewriting.bfs_prove"),
}


def span_name(layer: str, name: str) -> str:
    return f"{layer}.{name}"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for layer, name, _ in TARGETS:
        out.append((span_name(layer, name) + ".calls", "count"))
        out.append((span_name(layer, name) + ".self_s", "s"))
    for layer, name, _ in TARGETS:
        if layer in SETUP_LAYERS:
            out.append(("setup." + span_name(layer, name) + ".calls", "count"))
            out.append(("setup." + span_name(layer, name) + ".self_s", "s"))
    out += [(c, "count") for c in COUNTS]
    out += [(r, "ratio") for r in RATIOS]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


class Tracer:
    def __init__(self, lv):
        self.lv = lv
        self.spans: list[list] = []  # [name, parent index or None, start, end, phase]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.notes: list[str] = []
        self.active = False
        self.phase = "ops"
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        tracer = self
        clock = time.process_time  # the clock of the timed region

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else None
            span = [name, parent, clock(), None, tracer.phase]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                tracer.stack.pop()
            if observe is not None and span[4] == "ops":
                try:
                    observe(tracer.lv, tracer.counts, args, result, parent)
                except (AttributeError, TypeError, IndexError) as exc:
                    tracer._note(f"{name}: count not read ({exc})")
            return result

        return traced

    def _note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "linvar" or n.startswith("linvar."))]
        for layer, dotted, observe in TARGETS:
            name = span_name(layer, dotted)
            module = sys.modules.get(f"linvar.{layer}")
            parts = dotted.split(".")
            owner = module
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, parts[-1]):
                self._note(f"{name}: not in this version of linvar; reported as 0")
                continue
            if len(parts) > 1:
                # a method, wrapped on its class
                self._set(owner, parts[-1], self._wrap(name, getattr(owner, parts[-1]), observe))
                continue
            original = getattr(owner, parts[-1])
            if isinstance(original, type):
                # a class: its construction is the span
                self._set(original, "__init__", self._wrap(name, original.__init__, observe))
                continue
            wrapper = self._wrap(name, original, observe)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per traced callable, plus counts and ratios."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, phase in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, parent, start, end, phase) in enumerate(self.spans):
            key = name if phase == "ops" else f"{phase}.{name}"
            calls[key] += 1
            self_s[key] += (end - start) - child_time[i]
        out: dict[str, float] = {}
        for layer, dotted, _ in TARGETS:
            name = span_name(layer, dotted)
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
        for layer, dotted, _ in TARGETS:
            if layer in SETUP_LAYERS:
                name = "setup." + span_name(layer, dotted)
                out[name + ".calls"] = calls[name]
                out[name + ".self_s"] = self_s[name]
        for c in COUNTS:
            out[c] = self.counts[c]
        for ratio, (numerator, base) in RATIOS.items():
            out[ratio] = self.counts[numerator] / calls[base] if calls[base] else 0.0
        return out
