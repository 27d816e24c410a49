"""Outside-in per-layer tracing of valforge.

The tracer wraps public callables from the outside and changes no file of the
program.  valforge modules import each other with `from .x import y`, so a
wrapper must sit on the binding a caller actually looks up: the name in the
calling module (`valforge.keypoly.standard_expansion`, the names imported by
`valforge.cli`) or the method on its class.  Patching only the defining
module would miss every call.

Each wrapped call is a span on one stack.  A span's self time is its duration
minus the time of the spans it encloses, so time stays with the right layer
through the cval/nres recursion.  Spans are aggregated per layer as they
close: self time, call count, and named event counts.
"""

import time
from collections import Counter, defaultdict

FIELD_ARITH = ("add", "sub", "neg", "mul", "div", "pow", "eq", "valuate",
               "unit_residue", "canonical_element", "lift_scalar", "from_int",
               "residue", "is_zero_mod_precision", "approximate")
RING_OPS = ("embed", "add", "sub", "mul", "neg", "inv", "pow", "div",
            "is_zero", "eq", "is_scalar", "to_scalar")
GROUP_OPS = ("__init__", "contains", "extend", "multiple_order")
VALUE_METHODS = ("cval", "nres", "term_values", "argmin_data",
                 "effective_degree", "in_class", "canonical_monomial",
                 "weight", "_rule_power", "newton_points")
GROWTH_METHODS = ("append", "clone", "derive_keys", "side_residual",
                  "_derive_rule", "_lift_key", "candidate_betas")
COUNTED = {"cval": "keypoly.cval_calls", "nres": "keypoly.nres_calls",
           "append": "keypoly.appends"}

def freeze(obj):
    """A hashable, structural key for a field element or polynomial: dicts
    become sorted item tuples and slotted objects their slot values."""
    if isinstance(obj, (tuple, list)):
        return tuple(freeze(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted((freeze(k), freeze(v)) for k, v in obj.items()))
    slots = getattr(type(obj), "__slots__", None)
    if slots:
        return (type(obj).__name__,) + tuple(freeze(getattr(obj, s))
                                             for s in slots)
    return obj


class Tracer:
    """Installs wrappers, aggregates spans, and removes the wrappers again."""

    def __init__(self):
        self._patches = []
        self._stack = []
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.events = Counter()
        self._seen_expansions = set()

    # -- aggregation --------------------------------------------------------

    def reset(self):
        self.self_time.clear()
        self.calls.clear()
        self.events.clear()
        self._seen_expansions.clear()

    def begin_run(self):
        """Start one engine run or one command: expansion repeats are
        counted within a run, not across runs."""
        self._seen_expansions.clear()

    def _span(self, layer, fn, count=None, on_call=None, on_result=None,
              on_error=None):
        stack = self._stack
        clock = time.perf_counter
        self_time = self.self_time
        calls = self.calls
        events = self.events

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call()
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                self_time[layer] += dt - child
                if stack:
                    stack[-1] += dt
                calls[layer] += 1
                if count is not None:
                    events[count] += 1
            if on_result is not None:
                on_result(args, out)
            return out

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, owner, name, layer, **kw):
        # an inherited method has no entry of its own; uninstall deletes the
        # wrapper again instead of pinning the inherited function
        self._patches.append((owner, name, vars(owner).get(name)))
        setattr(owner, name, self._span(layer, getattr(owner, name), **kw))

    def install(self, refusal_types):
        import valforge.cli as cli
        import valforge.fields as fields
        import valforge.graded as graded
        import valforge.keypoly as keypoly
        import valforge.report as report
        import valforge.values as values

        for cls in (fields.RationalFunctions, fields.LexMonomialSeries,
                    fields.CoordinateTower):
            for name in FIELD_ARITH:
                if hasattr(cls, name):
                    self._patch(cls, name, "fields.arith")
        self._patch(keypoly, "factor_scalar_poly", "fields.factor")
        self._patch(keypoly, "standard_expansion", "polyring.expand",
                    on_result=self._expansion)
        for name in VALUE_METHODS:
            self._patch(keypoly.Chain, name, "keypoly.values",
                        count=COUNTED.get(name))
        for name in GROWTH_METHODS:
            self._patch(keypoly.Chain, name, "keypoly.growth",
                        count=COUNTED.get(name))
        for name in ("_grow", "replay"):
            self._patch(keypoly, name, "keypoly.growth")

        def refused(exc):
            if isinstance(exc, refusal_types):
                self.events["keypoly.refusals"] += 1

        def branches(args, out):
            self.events["keypoly.branches"] += len(out[0])

        for owner in (keypoly, cli):
            self._patch(owner, "explore", "keypoly.growth",
                        on_result=branches, on_error=refused)
        for cls in (graded.ScalarRing, graded.EtaleRing):
            for name in RING_OPS:
                self._patch(cls, name, "graded.ring")
        for name in GROUP_OPS:
            self._patch(values.ValueGroup, name, "values.group")
        self._patch(report, "group_index", "values.group")
        for owner in (report, cli):
            for name in ("classify", "defect", "degree_identity",
                         "completeness_sample"):
                self._patch(owner, name, "report.classify")
        for name in ("render_chain", "render_defect", "render_newton"):
            self._patch(cli, name, "report.render")
        self._patch(cli, "load_scenario", "scenario.parse")
        self._patch(cli, "main", "cli.main", on_call=self.begin_run)

    def uninstall(self):
        while self._patches:
            owner, name, old = self._patches.pop()
            if old is None:
                delattr(owner, name)
            else:
                setattr(owner, name, old)

    def _expansion(self, args, out):
        f, q = args
        key = (id(f.field), freeze(f.coeffs), freeze(q.coeffs))
        self.events["polyring.expansions"] += 1
        if key in self._seen_expansions:
            self.events["polyring.expansion_repeats"] += 1
        else:
            self._seen_expansions.add(key)
