"""Bounded semidecision of equational consequence.

Everything here is three-valued: a query can come back Proved (with a
replayable witness), Refuted (with a finite countermodel and a falsifying
assignment), or Unknown (some budget dimension ran out). Nothing in this
module ever guesses: Proved and Refuted verdicts carry evidence that tests
re-check mechanically.

Budget.max_steps is a unified work counter. In proof search a step is one
node expansion; in countermodel search a step is one constraint evaluation
(a cell-value attempt or one ground equation-instance check). This keeps
"cheap disproof first" actually cheap on theories whose finite model space
is astronomically large. The model search re-checks only the instances
waiting on the cell just assigned, but charges each cell attempt as a full
rescan of the instances would: one step, plus the instances up to and
including the first violated one, or all of them when none is violated.
refute charges each model its stream cost, plus one step per assignment up
to and including the first falsifying one, or all of them when none
falsifies, however the evaluation is batched.

Results are pure functions of (theory, query, budget): work kept in the
theory's memo (see Theory.derived) is charged to each consumer as if it had
done the work itself, so verdicts do not depend on memo warmth.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from operator import ne
from typing import Mapping, Optional, Sequence

from .normal_forms import catalog_normalizer
from .terms import (
    App,
    Equation,
    Term,
    TermError,
    Theory,
    Var,
    check_term,
    positions,
    replace_at,
    substitute,
    subterm_at,
    term_key,
    var_names,
)


@dataclass(frozen=True)
class Budget:
    """Resource limits for one query. All dimensions must be >= 1."""

    max_term_size: int = 9
    max_steps: int = 200_000
    max_model_size: int = 3

    def __post_init__(self):
        if min(self.max_term_size, self.max_steps, self.max_model_size) < 1:
            raise ValueError("budget dimensions must be >= 1")


DEFAULT_BUDGET = Budget()


# ---------------------------------------------------------------------------
# Verdicts and proof witnesses


class Verdict:
    __slots__ = ()

    @property
    def is_proved(self):
        return isinstance(self, Proved)

    @property
    def is_refuted(self):
        return isinstance(self, Refuted)

    @property
    def is_unknown(self):
        return isinstance(self, Unknown)


@dataclass(frozen=True)
class RewriteStep:
    before: Term
    after: Term
    eq_index: int
    forward: bool
    path: tuple[int, ...]
    binding: tuple[tuple[str, Term], ...]


@dataclass(frozen=True)
class RewriteTrace:
    steps: tuple[RewriteStep, ...]


@dataclass(frozen=True)
class NormalFormCertificate:
    normalizer: str


@dataclass
class Proved(Verdict):
    witness: object  # RewriteTrace | NormalFormCertificate | domain-specific


@dataclass
class Refuted(Verdict):
    model: "FiniteAlgebra"
    assignment: dict


@dataclass
class Unknown(Verdict):
    reason: str
    detail: object = None


# ---------------------------------------------------------------------------
# Finite algebras


@dataclass(frozen=True)
class FiniteAlgebra:
    """A carrier {0..size-1} with one flat operation table per symbol.

    Tables are row-major in the argument tuple (mixed-radix, most
    significant argument first); a constant's table has one entry.
    """

    size: int
    arities: tuple[int, ...]
    tables: tuple[tuple[int, ...], ...]

    def op(self, sym: int, args: Sequence[int]) -> int:
        off = 0
        for a in args:
            off = off * self.size + a
        return self.tables[sym][off]

    def nested_tables(self, theory: Theory) -> dict:
        def nest(flat, arity):
            if arity == 0:
                return flat[0]
            step = len(flat) // self.size
            return [nest(flat[i * step : (i + 1) * step], arity - 1) for i in range(self.size)]

        return {
            theory.signature.name(i): nest(list(self.tables[i]), self.arities[i])
            for i in range(len(self.arities))
        }

    def satisfies(self, theory: Theory) -> bool:
        for eq in theory.equations:
            cl, cr, vs = _eq_code(eq.lhs, eq.rhs)
            assignments, columns = theory.derived(_grid, self.size, len(vs))
            if _first_difference(cl, cr, self.tables, self.size, len(assignments), columns) is not None:
                return False
        return True


def eval_term(algebra: FiniteAlgebra, t: Term, env: Mapping[str, int]) -> int:
    """Bottom-up evaluation; raises on the leftmost variable missing from env.

    Kept apart from the column evaluator below, as an independent re-check
    of the verdicts that evaluator produces."""
    values: list[int] = []
    stack = [(t, False)]
    while stack:
        s, ready = stack.pop()
        if type(s) is Var:
            if s.name not in env:
                raise TermError(f"unmapped variable {s.name!r}")
            values.append(env[s.name])
        elif ready:
            first = len(values) - len(s.args)
            args = values[first:]
            del values[first:]
            values.append(algebra.op(s.sym, args))
        else:
            stack.append((s, True))
            stack.extend((a, False) for a in reversed(s.args))
    return values[0]


# ---------------------------------------------------------------------------
# Postfix code and column evaluation
#
# A term compiles to postfix code: (0, slot) pushes a variable, (1, sym,
# arity) applies a symbol to the top arity values. Evaluated over the
# assignment grid, a variable's value is its column and a symbol maps its
# argument columns entry by entry, so a query costs one pass per node
# instead of one walk per assignment. refute goes further and evaluates a
# block of consecutive found models at once, laid end to end as one algebra
# (see _block), so a pass per node covers every assignment of every model
# in the block. A single model is the one-model block.


def _code(t: Term, var_pos: dict) -> tuple:
    """Postfix code of t. A variable not yet in var_pos takes the next slot,
    so slots follow first occurrence, left to right."""
    # visiting each node before its children, last child first, gives the
    # postfix order reversed
    nodes = []
    stack = [t]
    while stack:
        s = stack.pop()
        nodes.append(s)
        if type(s) is App:
            stack.extend(s.args)
    code = []
    for s in reversed(nodes):
        if type(s) is Var:
            code.append((0, var_pos.setdefault(s.name, len(var_pos))))
        else:
            code.append((1, s.sym, len(s.args)))
    return tuple(code)


def _eq_code(lhs: Term, rhs: Term):
    """The codes of both sides over shared slots, and the variables in slot
    order: those of lhs, then those only in rhs."""
    pos: dict = {}
    cl, cr = _code(lhs, pos), _code(rhs, pos)
    return cl, cr, list(pos)


def _grid(theory: Theory, k: int, nvars: int):
    """Every assignment of nvars variables over {0..k-1}, in product order,
    and the column of each variable's values over them."""
    assignments = list(product(range(k), repeat=nvars))
    return assignments, [list(col) for col in zip(*assignments)]


def _block(theory: Theory, k: int, lo: int, hi: int) -> tuple[bytes, ...]:
    """Found models lo..hi-1 of the size-k stream laid end to end as one
    algebra, whose element j*k + x is x of model lo + j. Model j's part of an
    arity-a table starts at j*(k + k**2 + ... + k**a), where the mixed-radix
    offset of arguments from model j lands; a constant has one entry per
    model. Ids must fit in a byte: at most 256 // k models."""
    models = [alg for alg, _ in theory.derived(_ModelSearch, k).found[lo:hi]]
    tables = []
    for s, a in enumerate(models[0].arities):
        stride = sum(k**i for i in range(1, a + 1)) or 1
        tab = bytearray(stride * (len(models) - 1) + k**a)
        for j, alg in enumerate(models):
            tab[j * stride : j * stride + k**a] = map(range(j * k, j * k + k).__getitem__, alg.tables[s])
        tables.append(bytes(tab))
    return tuple(tables)


def _block_grid(theory: Theory, k: int, nvars: int, count: int) -> list:
    """The variable columns of _grid for a block of count models: model j's
    copy shifted by j*k, the models in turn."""
    return [[j * k + x for j in range(count) for x in col] for col in theory.derived(_grid, k, nvars)[1]]


def _column(code, columns, tables, k: int, n: int) -> list:
    """The values of code over grid columns under complete tables over
    {0..k-1}, or over a block of such models (see _block), n entries per
    model."""
    stack = []
    for op in code:
        if op[0] == 0:
            stack.append(columns[op[1]])
            continue
        tab, arity = tables[op[1]], op[2]
        if arity == 0:  # one value per model, each repeated n times
            stack.append([v for v in tab for _ in range(n)] if len(tab) > 1 else [tab[0]] * n)
        elif arity == 1:
            stack.append([tab[a] for a in stack.pop()])
        elif arity == 2:
            b = stack.pop()
            stack.append([tab[x * k + y] for x, y in zip(stack.pop(), b)])
        elif arity == 3:
            c, b = stack.pop(), stack.pop()
            stack.append([tab[(x * k + y) * k + z] for x, y, z in zip(stack.pop(), b, c)])
        else:
            args = stack[-arity:]
            del stack[-arity:]
            offs = args[0]
            for col in args[1:]:
                offs = [o * k + x for o, x in zip(offs, col)]
            stack.append([tab[o] for o in offs])
    return stack[0]


def _first_difference(cl, cr, tables, k: int, n: int, columns) -> Optional[int]:
    """Index of the first grid entry at which the codes cl and cr take
    different values (see _column), or None when they agree throughout."""
    left = _column(cl, columns, tables, k, n)
    right = _column(cr, columns, tables, k, n)
    if left == right:
        return None
    return list(map(ne, left, right)).index(True)


# ---------------------------------------------------------------------------
# Countermodel search
#
# Models of size k are enumerated by backtracking over table cells in a
# fixed order: symbols sorted by (arity, declaration index), cells of each
# table in row-major argument order, values tried ascending. The stream for
# each k is kept in the theory's memo; every model in it records the
# cumulative node count at which it was found, so later consumers can charge
# their own budgets as if they had run the search themselves. That keeps
# results deterministic however far the stream has already run.
#
# Each ground equation instance waits on the first undefined cell its
# evaluation reads (the watched-cell scheme of SEM and Mace4). Assigning any
# other cell cannot change what the evaluation reads up to that cell, so
# only the watchers of the cell just assigned are re-checked. A check is
# still charged as a full rescan of the instances would charge it: one step
# for the cell attempt, plus the instances up to and including the first
# violated one, or all of them when none is violated. That first violated
# instance is a watcher of the cell or one violated whatever the tables
# hold, since every other instance held or waited before the assignment.


def _blocked_eval(code, env, values, base, k) -> int:
    """Evaluate postfix code over partial tables held flat in values, where
    symbol s's table starts at base[s]; -1 - c when the first undefined cell
    the evaluation reads is c."""
    stack = []
    for op in code:
        if op[0] == 0:
            stack.append(env[op[1]])
            continue
        arity = op[2]
        cell = base[op[1]]
        if arity:
            off = 0
            for a in stack[-arity:]:
                off = off * k + a
            del stack[-arity:]
            cell += off
        v = values[cell]
        if v < 0:
            return -1 - cell
        stack.append(v)
    return stack[0]


class _ModelSearch:
    """Resumable DFS over all size-k models of a theory."""

    def __init__(self, theory: Theory, k: int):
        self.theory = theory
        self.k = k
        sig = theory.signature
        sizes = [k ** sig.arity(i) for i in range(len(sig))]
        self.base = [sum(sizes[:i]) for i in range(len(sig))]
        order = sorted(range(len(sig)), key=lambda i: (sig.arity(i), i))
        self.cells = [self.base[s] + off for s in order for off in range(sizes[s])]
        self.values = [-1] * sum(sizes)
        self.instances = []
        for eq in theory.equations:
            cl, cr, vs = _eq_code(eq.lhs, eq.rhs)
            for env in product(range(k), repeat=len(vs)):
                self.instances.append((cl, cr, env))
        # watch[c]: the instances whose evaluation first blocks on cell c;
        # an instance that blocks on no cell is satisfied for good, or
        # violated for good (x = y at k >= 2), whatever the tables hold
        self.watch: list[list[int]] = [[] for _ in self.values]
        self.violated = len(self.instances)  # least always-violated instance
        for i in range(len(self.instances)):
            c = self._blocker(i)
            if c >= 0:
                self.watch[c].append(i)
            elif c == -2 and self.violated == len(self.instances):
                self.violated = i
        # one entry per assigned cell: (cell, its watch list, the moves the
        # assignment made), undone in reverse on unassignment
        self.trail: list[tuple[int, list[int], list[tuple[int, int]]]] = []
        self.depth = 0
        self.next_value = [0] * (len(self.cells) + 1)
        self.cost = 0
        self.found: list[tuple[FiniteAlgebra, int]] = []
        self.finished = False
        self.final_cost: Optional[int] = None
        if not self.cells:
            # No table cells to fill: the bare set either is or is not a
            # model, depending on the (symbol-free) equations.
            if self.violated < len(self.instances):
                self.cost += self.violated + 1
            else:
                self.cost += len(self.instances)
                self._record()
            self.finished = True
            self.final_cost = self.cost

    def _blocker(self, i: int) -> int:
        """The cell instance i waits on, or -1 when it holds and -2 when it
        is violated under the current tables."""
        cl, cr, env = self.instances[i]
        a = _blocked_eval(cl, env, self.values, self.base, self.k)
        if a < 0:
            return -1 - a
        b = _blocked_eval(cr, env, self.values, self.base, self.k)
        if b < 0:
            return -1 - b
        return -1 if a == b else -2

    def _assign(self, cell: int, v: int) -> bool:
        """Set cell to v and charge the check. On success the watchers of
        cell move on and the trail records how; on failure cell is reset."""
        self.values[cell] = v
        stop = self.violated
        moves = []
        for i in sorted(self.watch[cell]):
            if i > stop:
                break
            c = self._blocker(i)
            if c == -2:
                stop = i
                break
            if c >= 0:
                moves.append((i, c))
        if stop < len(self.instances):
            self.cost += stop + 1
            self.values[cell] = -1
            return False
        self.cost += len(self.instances)
        for i, c in moves:
            self.watch[c].append(i)
        self.trail.append((cell, self.watch[cell], moves))
        self.watch[cell] = []
        return True

    def _unassign(self):
        """Undo the latest assignment: the moved watchers leave the ends of
        their lists in reverse order, and the cell gets its own list back."""
        cell, watchers, moves = self.trail.pop()
        for _, c in reversed(moves):
            self.watch[c].pop()
        self.watch[cell] = watchers
        self.values[cell] = -1

    def _record(self):
        sig = self.theory.signature
        alg = FiniteAlgebra(
            self.k,
            tuple(a for _, a in sig.symbols),
            tuple(
                tuple(self.values[b : b + self.k ** sig.arity(s)])
                for s, b in enumerate(self.base)
            ),
        )
        self.found.append((alg, self.cost))

    def advance(self, cost_limit: int) -> str:
        """Run until a new model is found, the space is exhausted, or the
        global cost counter reaches cost_limit. Returns "found", "finished",
        or "paused"."""
        if self.finished:
            return "finished"
        while True:
            if self.cost >= cost_limit:
                return "paused"
            if self.depth == len(self.cells):
                self._record()
                # step back so the search resumes past this model
                self.depth -= 1
                self._unassign()
                return "found"
            v = self.next_value[self.depth]
            if v >= self.k:
                self.next_value[self.depth] = 0
                self.depth -= 1
                if self.depth < 0:
                    self.finished = True
                    self.final_cost = self.cost
                    return "finished"
                self._unassign()
                continue
            self.next_value[self.depth] += 1
            self.cost += 1
            if self._assign(self.cells[self.depth], v):
                self.depth += 1
                self.next_value[self.depth] = 0


def find_models(theory: Theory, max_size: int) -> list[FiniteAlgebra]:
    """All models of the theory up to the given size, in enumeration order.

    Models are labelled tables; no quotient by isomorphism is taken. This
    runs to exhaustion, so only call it at sizes where that is sane.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    out = []
    for k in range(1, max_size + 1):
        s = theory.derived(_ModelSearch, k)
        while not s.finished:
            s.advance(float("inf"))
        out.extend(alg for alg, _ in s.found)
    return out


def refute(theory: Theory, eq: Equation, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """Search for a finite countermodel: a model of the theory together with
    an assignment falsifying eq. Returns the first hit in enumeration order,
    or Unknown when sizes or the step budget run out."""
    check_term(theory.signature, eq.lhs)
    check_term(theory.signature, eq.rhs)
    cl, cr, vs = _eq_code(eq.lhs, eq.rhs)
    spent = 0
    for k in range(1, budget.max_model_size + 1):
        s = theory.derived(_ModelSearch, k)
        found = s.found
        n = k ** len(vs)
        # a one-element model satisfies every equation: charged, not evaluated
        grid = theory.derived(_grid, k, len(vs)) if k > 1 else None
        # found models lo..hi-1 are evaluated as one block (see _block) of 1,
        # 1, 2, 4, ... models, so that a query refuted early pays for few, up
        # to cap: 256 // k models, so that element ids fit in a byte, and 2**16
        # entries in a column; at size 1 nothing is evaluated, so all models
        # form one block
        cap = 256 // k if n <= 256 else max(1, min(256 // k, 65536 // n))
        lo, hi = 0, 1 if grid else cap
        # room: what the budget leaves for this size's stream cost once the
        # models evaluated so far are charged in full; model j fits when its
        # search cost, plus a full charge for each model of the block before
        # it, is at most room
        room = budget.max_steps - spent
        while True:
            while len(found) < hi and not s.finished:
                if s.advance(room - n * (len(found) - lo) + 1) == "paused":
                    break
            # costs only grow, so the models that fit are a prefix
            cut = top = hi if hi <= len(found) else len(found)
            while cut > lo and found[cut - 1][1] + n * (cut - 1 - lo) > room:
                cut -= 1
            if cut > lo:
                if grid is None:
                    hit = None
                elif cut - lo == 1:
                    hit = _first_difference(cl, cr, found[lo][0].tables, k, n, grid[1])
                else:
                    # kept whole: all the block's models, or all the stream's
                    # last ones and its end, fit; a block cut by the budget
                    # is kept out of the memo and reads a prefix of the grid
                    if cut == hi or (s.finished and cut == len(found) and s.final_cost + n * (cut - lo) <= room):
                        tables = theory.derived(_block, k, lo, cut)
                        columns = theory.derived(_block_grid, k, len(vs), cut - lo)
                    else:
                        tables = _block(theory, k, lo, cut)
                        columns = [c[: (cut - lo) * n] for c in theory.derived(_block_grid, k, len(vs), hi - lo)]
                    hit = _first_difference(cl, cr, tables, k, n, columns)
                if hit is not None:
                    # the models before the hit fit, so each was charged in full
                    j, at = lo + hit // n, hit % n
                    if found[j][1] + n * (j - lo) + at + 1 > room:
                        return Unknown("model search step budget exhausted", detail=k)
                    return Refuted(found[j][0], dict(zip(vs, grid[0][at])))
                room -= n * (cut - lo)
                if found[cut - 1][1] > room:  # not all of the last model's assignments fit
                    return Unknown("model search step budget exhausted", detail=k)
            if cut < hi or (s.finished and cut == len(found)):
                # the stream's end comes next only if every found model fit
                if cut < top or not s.finished:
                    return Unknown("model search step budget exhausted", detail=k)
                spent = budget.max_steps - room + s.final_cost
                break
            lo, hi = hi, hi + (hi if hi < cap else cap)
        if spent > budget.max_steps:
            return Unknown("model search step budget exhausted", detail=k)
    return Unknown(f"no countermodel up to size {budget.max_model_size}")


# ---------------------------------------------------------------------------
# Proof search
#
# Bidirectional breadth-first search over the rewrite closure of the axioms,
# applied at every position in both orientations, with all intermediate
# terms capped in size. Axiom variables that appear only on the replacement
# side are instantiated with size-1 terms over the query's variables and the
# signature's constants; this keeps branching finite and is sound (every
# found derivation is genuine), at the price of more Unknowns.


@dataclass(frozen=True)
class _Rule:
    lhs: Term
    rhs: Term
    eq_index: int
    forward: bool
    extra_vars: tuple[str, ...]
    # (v, n): the lhs binds v and v occurs n times in rhs
    rhs_counts: tuple[tuple[str, int], ...]


def _rules(theory: Theory) -> tuple[tuple[_Rule, ...], ...]:
    """Every axiom in both orientations, in axiom order, indexed by the head
    of the subterm a rule can rewrite: entry s holds the rules whose lhs is
    headed by symbol s or is a variable; the last entry, for a variable
    subterm, holds only the latter."""
    rules = []
    for i, eq in enumerate(theory.equations):
        if eq.lhs == eq.rhs:
            continue
        for lhs, rhs, fwd in ((eq.lhs, eq.rhs, True), (eq.rhs, eq.lhs, False)):
            lv = var_names(lhs)
            extra = tuple(v for v in var_names(rhs) if v not in lv)
            occ = Counter(s.name for _, s in positions(rhs) if type(s) is Var)
            counts = tuple((v, n) for v, n in occ.items() if v in lv)
            rules.append(_Rule(lhs, rhs, i, fwd, extra, counts))
    var_headed = tuple(r for r in rules if type(r.lhs) is Var)
    by_sym = tuple(
        tuple(r for r in rules if type(r.lhs) is Var or r.lhs.sym == s)
        for s in range(len(theory.signature))
    )
    return by_sym + (var_headed,)


def _match(pattern: Term, subject: Term, binding: dict) -> bool:
    if type(pattern) is Var:
        cur = binding.get(pattern.name)
        if cur is None:
            binding[pattern.name] = subject
            return True
        return cur == subject
    if type(subject) is not App or subject.sym != pattern.sym:
        return False
    for pa, sa in zip(pattern.args, subject.args):
        if not _match(pa, sa, binding):
            return False
    return True


def _neighbors(t: Term, rules, size_cap: int, pool: Sequence[Term]):
    """Yield (new, rule, path, binding) for each one-step rewrite of t that
    changes it and keeps it within size_cap: positions in preorder, rules in
    axiom order, pool combinations for extra variables in product order.

    The size of a rewrite is known from the match alone, so one over the cap
    is dropped before any term is built; _step gives the proof step."""
    for path, sub in positions(t):
        room = size_cap - t.size + sub.size
        for rule in rules[sub.sym if type(sub) is App else -1]:
            binding: dict = {}
            if not _match(rule.lhs, sub, binding):
                continue
            # pool terms have size 1, so extra variables add nothing
            size = rule.rhs.size
            for v, n in rule.rhs_counts:
                size += n * (binding[v].size - 1)
            if size > room:
                continue
            if rule.extra_vars:
                combos = product(pool, repeat=len(rule.extra_vars))
            else:
                combos = (None,)
            for combo in combos:
                b = binding if combo is None else {**binding, **dict(zip(rule.extra_vars, combo))}
                new = replace_at(t, path, substitute(rule.rhs, b))
                if new != t:
                    yield new, rule, path, b


def _step(before: Term, after: Term, rule: _Rule, path, binding: dict, flip=False) -> RewriteStep:
    """The proof step of a rewrite from _neighbors; flip reads it backwards."""
    forward = rule.forward != flip
    return RewriteStep(before, after, rule.eq_index, forward, path, tuple(sorted(binding.items())))


def _query_pool(theory: Theory, *terms: Term) -> list[Term]:
    pool: list[Term] = []
    seen = set()
    for t in terms:
        for v in var_names(t):
            if v not in seen:
                seen.add(v)
                pool.append(Var(v))
    pool.extend(App(c, ()) for c in theory.signature.constants())
    return pool


def _splice(meet, vis_l, vis_r) -> RewriteTrace:
    """The trace lhs -> meet -> rhs; vis maps a term to None (a root) or to
    (parent, rule, path, binding), the rewrite that first reached it."""
    fwd = []
    cur = meet
    while vis_l[cur] is not None:
        parent, rule, path, binding = vis_l[cur]
        fwd.append(_step(parent, cur, rule, path, binding))
        cur = parent
    fwd.reverse()
    back = []
    cur = meet
    while vis_r[cur] is not None:
        parent, rule, path, binding = vis_r[cur]
        back.append(_step(cur, parent, rule, path, binding, flip=True))
        cur = parent
    return RewriteTrace(tuple(fwd + back))


def prove(theory: Theory, eq: Equation, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """Bounded proof search for theory |- eq. Never returns Refuted."""
    check_term(theory.signature, eq.lhs)
    check_term(theory.signature, eq.rhs)
    if eq.lhs == eq.rhs:
        return Proved(RewriteTrace(()))
    nf = catalog_normalizer(theory)
    if nf is not None:
        if nf.key(eq.lhs) == nf.key(eq.rhs):
            return Proved(NormalFormCertificate(nf.name))
        return Unknown(f"distinct {nf.name} normal forms (not derivable)")
    cap = max(budget.max_term_size, eq.lhs.size, eq.rhs.size)
    pool = _query_pool(theory, eq.lhs, eq.rhs)
    rules = theory.derived(_rules)
    vis = ({eq.lhs: None}, {eq.rhs: None})
    frontier: list[list[Term]] = [[eq.lhs], [eq.rhs]]
    steps = 0
    while frontier[0] and frontier[1]:
        side = 0 if len(frontier[0]) <= len(frontier[1]) else 1
        other = 1 - side
        nxt = []
        for t in frontier[side]:
            steps += 1
            if steps > budget.max_steps:
                return Unknown("proof search step budget exhausted")
            for new, rule, path, binding in _neighbors(t, rules, cap, pool):
                if new in vis[side]:
                    continue
                vis[side][new] = (t, rule, path, binding)
                if new in vis[other]:
                    # vis[0] is rooted at the lhs regardless of which side
                    # just expanded
                    return Proved(_splice(new, vis[0], vis[1]))
                nxt.append(new)
        frontier[side] = nxt
    return Unknown(f"rewrite closure exhausted at term size {cap}")


def replay(theory: Theory, eq: Equation, verdict: Verdict) -> bool:
    """Mechanically re-check a Proved verdict's witness."""
    if not isinstance(verdict, Proved):
        return False
    w = verdict.witness
    if isinstance(w, NormalFormCertificate):
        nf = catalog_normalizer(theory)
        return nf is not None and nf.name == w.normalizer and nf.key(eq.lhs) == nf.key(eq.rhs)
    if not isinstance(w, RewriteTrace):
        return False
    cur = eq.lhs
    for step in w.steps:
        if step.before != cur:
            return False
        ax = theory.equations[step.eq_index]
        lhs, rhs = (ax.lhs, ax.rhs) if step.forward else (ax.rhs, ax.lhs)
        binding = dict(step.binding)
        if substitute(lhs, binding) != subterm_at(cur, step.path):
            return False
        cur = replace_at(cur, step.path, substitute(rhs, binding))
        if cur != step.after:
            return False
    return cur == eq.rhs


def decide(theory: Theory, eq: Equation, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """Refute-then-prove. Unknown only when both directions come up empty."""
    if eq.lhs == eq.rhs:
        return Proved(RewriteTrace(()))
    nf = catalog_normalizer(theory)
    if nf is not None and nf.key(eq.lhs) == nf.key(eq.rhs):
        return Proved(NormalFormCertificate(nf.name))
    r = refute(theory, eq, budget)
    if r.is_refuted:
        return r
    p = prove(theory, eq, budget)
    if p.is_proved:
        return p
    return Unknown(f"not refuted ({r.reason}); not proved ({p.reason})")


# ---------------------------------------------------------------------------
# Normalization


def normalize(
    theory: Theory,
    t: Term,
    budget: Budget = DEFAULT_BUDGET,
    var_order: Optional[Sequence[str]] = None,
) -> Term:
    """Canonical representative of t's equivalence class, within budget.

    For catalog theories this is the exact normal form. Otherwise it is the
    canonical-order minimum of the size-bounded rewrite closure, iterated to
    a fixpoint so the result is idempotent for a fixed budget.
    """
    check_term(theory.signature, t)
    rank = {v: i for i, v in enumerate(var_order)} if var_order is not None else None
    if rank is not None:
        missing = [v for v in var_names(t) if v not in rank]
        if missing:
            raise TermError(f"var_order does not cover {missing}")
    nf = catalog_normalizer(theory)
    if nf is not None:
        return nf.render(nf.key(t), rank)
    cur = t
    while True:
        best = _closure_min(theory, cur, budget, rank)
        if best == cur:
            return cur
        cur = best


def _closure_min(theory, t, budget, rank):
    def key(u):
        return term_key(u, rank)

    vs = var_names(t)
    floor = None
    if vs:
        least = min(vs, key=lambda v: rank[v] if rank is not None else v)
        floor = key(Var(least))
    elif theory.signature.constants():
        floor = key(App(theory.signature.constants()[0], ()))
    cap = max(budget.max_term_size, t.size)
    pool = _query_pool(theory, t)
    rules = theory.derived(_rules)
    best, best_key = t, key(t)
    if floor is not None and best_key == floor:
        return best
    seen = {t}
    frontier = [t]
    steps = 0
    while frontier:
        nxt = []
        for u in frontier:
            steps += 1
            if steps > budget.max_steps:
                return best
            for new, *_ in _neighbors(u, rules, cap, pool):
                if new in seen:
                    continue
                seen.add(new)
                nk = key(new)
                if nk < best_key:
                    best, best_key = new, nk
                    if floor is not None and best_key == floor:
                        return best
                nxt.append(new)
        frontier = nxt
    return best


# ---------------------------------------------------------------------------
# Internal three-valued equality filter
#
# Searches (Mal'cev terms, witnesses, carrier dedup) need a fast "provably
# equal / provably distinct / unknown" test. Distinctness goes through a
# fingerprint over the small models kept in the theory's memo (a genuine
# countermodel, so the answer matches what full refutation would eventually
# say); equality goes through the exact normalizer or bounded proof search.

_FINGERPRINT_SIZE = 2
_FINGERPRINT_SPACE_CAP = 8192
_FINGERPRINT_ASSIGNMENT_CAP = 4096


def _fingerprint_models(theory: Theory, limit: int) -> list[FiniteAlgebra]:
    """The models used for quick distinctness checks: all of every size up
    to limit whose table space is small."""
    # the table space k ** cells grows with k and is a single point at k = 1
    top = max(k for k in range(1, limit + 1)
              if k ** sum(k ** a for _, a in theory.signature.symbols) <= _FINGERPRINT_SPACE_CAP)
    return find_models(theory, top)


def tri_equal(theory: Theory, a: Term, b: Term, budget: Budget = DEFAULT_BUDGET):
    """Returns ("proved", Verdict) | ("refuted", (model, env) | None) |
    ("unknown", reason).

    The result is kept in the theory's memo, one per (a, b, budget), so the
    returned tuple, its verdict and its assignment dict are shared between
    callers and must not be mutated."""
    return theory.derived(_tri_equal, a, b, budget)


def _tri_equal(theory: Theory, a: Term, b: Term, budget: Budget):
    if a == b:
        return ("proved", Proved(RewriteTrace(())))
    nf = catalog_normalizer(theory)
    if nf is not None:
        if nf.key(a) == nf.key(b):
            return ("proved", Proved(NormalFormCertificate(nf.name)))
        return ("refuted", None)
    ca, cb, vs = _eq_code(a, b)
    for alg in theory.derived(_fingerprint_models, min(_FINGERPRINT_SIZE, budget.max_model_size)):
        if alg.size ** len(vs) > _FINGERPRINT_ASSIGNMENT_CAP:
            continue
        grid = theory.derived(_grid, alg.size, len(vs))
        hit = _first_difference(ca, cb, alg.tables, alg.size, len(grid[0]), grid[1])
        if hit is not None:
            return ("refuted", (alg, dict(zip(vs, grid[0][hit]))))
    p = prove(theory, Equation(a, b), budget)
    if p.is_proved:
        return ("proved", p)
    return ("unknown", p.reason)
