"""SLA synthesis: chart → PLA product terms (Fig. 1).

"The SLA … implements the semantics of the chart, and acts as a scheduler
for the transitions.  The SLA executes transitions based on the contents of
the CR.  The SLA generates four sets of outputs: It resets the event parts
of the CR …, it produces a set of signals for the Transition Address Table,
and updates the state part of the CR under the control of the guard signals
G0..Gm."

We synthesize a two-level (PLA) network over the CR bits:

* one output ``t<i>`` per transition: asserted when the source state is
  active and the trigger/guard expression holds (the expression's
  sum-of-products becomes one AND-plane row per product);
* one output ``evreset_<e>`` per event: events are consumed after each
  configuration cycle;
* the guard outputs ``g<m>``: conflict arbitration (outer scope wins,
  declaration order ties) is emitted as priority terms — output ``t<i>``
  suppressed by any conflicting higher-priority transition is listed in
  :attr:`Pla.guards` so the scheduler (hardware: extra decode logic) can
  apply them.

The functional reference for all of this is the statechart interpreter; the
equivalence is property-tested.

The functional evaluator is compiled once, when the :class:`Pla` is built.
Each product term becomes a ``(mask, value)`` pair over the CR word, so a
row matches when ``bits & mask == value``.  A reactive chart visits few
distinct CR words (the SMD loop about three dozen), so :meth:`Pla.enabled`
memoizes the arbitrated result per CR word.  The memo is bounded at
:data:`ENABLED_MEMO_LIMIT` entries; once full, new words are evaluated
directly and nothing is evicted, so results never depend on the order in
which CR words arrive.  :attr:`Pla.memo_stats` reports its hits, misses and
size.  :meth:`ProductTerm.matches` stays the literal-by-literal reference
the compiled rows are tested against.

So is the state update: per transition, ``clear`` drops the fields below
its scope and ``enter`` is its encoded entry set.  :meth:`Pla.fire`, the
step kernel of the machine and the model checker, folds them over the CR
word (``bits = (bits & clear) | enter``).  :meth:`Pla.decode` maps a state
word to its configuration through a table bounded like the memo
(:data:`DECODE_MEMO_LIMIT`, no eviction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (
    Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Tuple)

from repro.sla.encode import CrLayout, cr_layout
from repro.statechart.model import Chart, Transition


@dataclass(frozen=True)
class ProductTerm:
    """One AND-plane row: literals are (CR bit, required value)."""

    literals: Tuple[Tuple[int, bool], ...]

    def matches(self, bits: int) -> bool:
        return all(((bits >> bit) & 1) == int(value)
                   for bit, value in self.literals)

    @property
    def n_literals(self) -> int:
        return len(self.literals)

    @property
    def mask_value(self) -> Tuple[int, int]:
        """The row packed into two CR words: it matches when
        ``bits & mask == value``."""
        mask = value = 0
        for bit, required in self.literals:
            mask |= 1 << bit
            if required:
                value |= 1 << bit
        return mask, value


#: most CR words one :class:`Pla` memoizes (see the module docstring)
ENABLED_MEMO_LIMIT = 4096
#: most state words one :class:`Pla` decodes into its table
DECODE_MEMO_LIMIT = 4096


class MemoStats(NamedTuple):
    """Traffic of the enabled-set memo since the PLA was built."""

    hits: int
    misses: int
    size: int
    limit: int


@dataclass(frozen=True, eq=False)
class Pla:
    """The synthesized SLA network (immutable once built)."""

    layout: CrLayout
    #: per transition index: its product terms (OR-plane row)
    transition_terms: Mapping[int, Tuple[ProductTerm, ...]]
    #: per transition index: the higher-priority transition indices that
    #: suppress it (the guard-signal network G0..Gm)
    guards: Mapping[int, FrozenSet[int]] = field(init=False)
    #: per transition: (index, its product terms as (mask, value) pairs)
    _rows: Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...] = field(
        init=False, repr=False)
    #: per transition index: its (clear, enter) fire masks
    _fire: Tuple[Tuple[int, int], ...] = field(init=False, repr=False)
    _memo: Dict[int, Tuple[int, ...]] = field(init=False, repr=False)
    _decoded: Dict[int, FrozenSet[str]] = field(init=False, repr=False)
    #: [hits, misses] of the memo
    _tally: List[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        chart = self.layout.chart
        scopes = {t.index: chart.transition_scope(t)
                  for t in chart.transitions}
        terms = {index: tuple(row)
                 for index, row in self.transition_terms.items()}
        rows = tuple((index, tuple(term.mask_value for term in row))
                     for index, row in terms.items())
        setter = object.__setattr__
        setter(self, "transition_terms", MappingProxyType(terms))
        setter(self, "guards",
               MappingProxyType(_guard_network(chart, scopes)))
        setter(self, "_rows", rows)
        setter(self, "_fire", _fire_masks(self.layout, scopes))
        setter(self, "_memo", {})
        setter(self, "_decoded", {})
        setter(self, "_tally", [0, 0])

    @property
    def product_terms(self) -> int:
        return sum(len(terms) for terms in self.transition_terms.values())

    @property
    def literal_count(self) -> int:
        return sum(term.n_literals
                   for terms in self.transition_terms.values()
                   for term in terms)

    @property
    def memo_stats(self) -> MemoStats:
        hits, misses = self._tally
        return MemoStats(hits, misses, len(self._memo), ENABLED_MEMO_LIMIT)

    def raw_enabled(self, cr_bits: int) -> List[int]:
        """Transition indices whose PLA output is asserted (pre-guard)."""
        return [index for index, pairs in self._rows
                if any(cr_bits & mask == value for mask, value in pairs)]

    def enabled(self, cr_bits: int) -> List[int]:
        """Transition indices after guard arbitration — what the Transition
        Address Table receives.  Each call returns a fresh list."""
        result = self._memo.get(cr_bits)
        if result is not None:
            self._tally[0] += 1
            return list(result)
        self._tally[1] += 1
        raw = self.raw_enabled(cr_bits)
        raw_set = set(raw)
        guards = self.guards
        result = tuple(sorted(index for index in raw
                              if not (guards[index] & raw_set)))
        if len(self._memo) < ENABLED_MEMO_LIMIT:
            self._memo[cr_bits] = result
        return list(result)

    def fire(self, cr_bits: int, fired: Iterable[int]) -> int:
        """The CR word after the *fired* transitions commit their state
        updates, in order — the SLA's state-part write."""
        masks = self._fire
        for index in fired:
            clear, enter = masks[index]
            cr_bits = (cr_bits & clear) | enter
        return cr_bits

    def decode(self, state_word: int) -> FrozenSet[str]:
        """The configuration held by *state_word* (the CR >> state offset)."""
        configuration = self._decoded.get(state_word)
        if configuration is not None:
            return configuration
        configuration = self.layout.encoding.active_states(state_word)
        if len(self._decoded) < DECODE_MEMO_LIMIT:
            self._decoded[state_word] = configuration
        return configuration

    def output_names(self) -> List[str]:
        return [f"t{index}" for index in sorted(self.transition_terms)]

    def as_products_by_output(self):
        """For the VHDL/BLIF emitters: output name -> (pos, neg) name pairs."""
        input_names = self.layout.input_names()
        result = {}
        for index, terms in self.transition_terms.items():
            rendered = []
            for term in terms:
                positive = [input_names[bit] for bit, value in term.literals
                            if value]
                negative = [input_names[bit] for bit, value in term.literals
                            if not value]
                rendered.append((positive, negative))
            result[f"t{index}"] = rendered
        return result


class SynthesisError(Exception):
    """Raised when a chart cannot be synthesized (e.g. unresolved refs)."""


def _expression_terms(expression, layout: CrLayout):
    """Sum-of-products of a trigger/guard over CR bit literals."""
    if expression is None:
        return [tuple()]
    products = expression.to_sop()
    if not products:
        # contradictory expression: transition can never fire
        return []
    rendered = []
    for positive, negative in products:
        literals = [(layout.signal_bit(name), True) for name in sorted(positive)]
        literals += [(layout.signal_bit(name), False) for name in sorted(negative)]
        rendered.append(tuple(literals))
    return rendered


def synthesize(chart: Chart, onehot: bool = False) -> Pla:
    """Build the SLA PLA for *chart*."""
    from repro.statechart.model import StateKind

    for state in chart.states.values():
        if state.kind is StateKind.REF:
            raise SynthesisError(
                f"chart {chart.name!r} still contains unresolved reference "
                f"{state.name!r}; run resolve_references() first")

    layout = cr_layout(chart, onehot=onehot)
    transition_terms: Dict[int, List[ProductTerm]] = {}

    for transition in chart.transitions:
        state_literals = layout.state_literals(transition.source)
        terms: List[ProductTerm] = []
        trigger_products = _expression_terms(transition.trigger, layout)
        guard_products = _expression_terms(transition.guard, layout)
        for trigger_term in trigger_products:
            for guard_term in guard_products:
                combined = dict(state_literals)
                consistent = True
                for bit, value in trigger_term + guard_term:
                    if combined.get(bit, value) != value:
                        consistent = False
                        break
                    combined[bit] = value
                if consistent:
                    terms.append(ProductTerm(tuple(sorted(combined.items()))))
        transition_terms[transition.index] = terms

    return Pla(layout, transition_terms)


def _guard_network(chart: Chart, scopes: Mapping[int, str]
                   ) -> Dict[int, FrozenSet[int]]:
    """Which transitions suppress which: b beats a when their scopes are
    ancestrally related and b's is strictly outer, or as deep with a
    smaller index."""
    chains = {scope: chart.ancestors_and_self(scope)
              for scope in set(scopes.values())}
    return {a: frozenset(b for b, scope_b in scopes.items()
                         if (scope_a in chains[scope_b]
                             or scope_b in chains[scope_a])
                         and (len(chains[scope_b]), b)
                         < (len(chains[scope_a]), a))
            for a, scope_a in scopes.items()}


def _fire_masks(layout: CrLayout, scopes: Mapping[int, str]
                ) -> Tuple[Tuple[int, int], ...]:
    """Per transition, the ``(clear, enter)`` pair of :meth:`Pla.fire`."""
    chart, encoding = layout.chart, layout.encoding
    offset = layout.state_offset
    fields = {name: sum(((1 << c.width) - 1) << c.offset for c in row)
              for name, row in encoding.constraints.items()}
    masks = []
    for transition in chart.transitions:
        scope = scopes[transition.index]
        below = 0
        for state in chart.descendants(scope):
            below |= fields[state]
        enter = encoding.encode(chart.entry_set(transition))
        masks.append((~((below & ~fields[scope]) << offset), enter << offset))
    return tuple(masks)
