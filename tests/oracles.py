"""Independent oracles used to derive expected values.

Each oracle here is deliberately implemented from first principles, not by
calling into the package's engine, so that the two routes stay independent:

  * free-group words  - repeated-scan reduction of signed letter strings
  * abelian exponents - letter counting
  * semilattice sets  - the free semilattice is nonempty finite subsets
  * term counting     - pure arithmetic recursion, no term objects
  * naive generation  - unordered set-based recursion
  * concrete groups   - Z2 by arithmetic, S3 by composing permutations
  * rewrite neighbours - substitute every match, then check its size
  * countermodel replay - one dict and one recursive walk per assignment
  * model search       - every ground instance re-scanned after every cell
"""

from itertools import permutations, product
from typing import Optional

from freealg.engine import (
    _FINGERPRINT_ASSIGNMENT_CAP,
    _FINGERPRINT_SIZE,
    FiniteAlgebra,
    NormalFormCertificate,
    Proved,
    Refuted,
    RewriteStep,
    RewriteTrace,
    Unknown,
    _eq_code,
    _fingerprint_models,
    prove,
)
from freealg.normal_forms import catalog_normalizer
from freealg.terms import App, Equation, Term, Theory, Var, replace_at, substitute


# ---------------------------------------------------------------------------
# Free-group word oracle. Terms over the groups.th signature (mul/inv/e by
# name) become signed letter lists; reduction rescans until nothing cancels.


def group_letters(sig, t: Term):
    mul, inv, e = sig.index("mul"), sig.index("inv"), sig.index("e")

    def walk(s):
        if type(s) is Var:
            return [(s.name, 1)]
        if s.sym == mul:
            return walk(s.args[0]) + walk(s.args[1])
        if s.sym == inv:
            return [(n, -x) for n, x in reversed(walk(s.args[0]))]
        if s.sym == e:
            return []
        raise AssertionError("not a group term")

    return walk(t)


def reduce_word(letters):
    word = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i][0] == word[i + 1][0] and word[i][1] == -word[i + 1][1]:
                del word[i : i + 2]
                changed = True
                break
    return tuple(word)


def group_word(sig, t: Term):
    return reduce_word(group_letters(sig, t))


def abelian_exponents(sig, t: Term):
    exps = {}
    for name, sign in group_letters(sig, t):
        exps[name] = exps.get(name, 0) + sign
    return {n: e for n, e in exps.items() if e != 0}


# ---------------------------------------------------------------------------
# Semilattice subset oracle: a term denotes the set of its variables.


def meet_set(t: Term) -> frozenset:
    if type(t) is Var:
        return frozenset((t.name,))
    out = frozenset()
    for a in t.args:
        out |= meet_set(a)
    return out


# ---------------------------------------------------------------------------
# Counting and naive generation of terms.


def count_terms(arities, nvars, max_size) -> int:
    """Number of terms over nvars variables with size <= max_size, counted
    by arithmetic recursion only."""

    cache = {}

    def exact(s):
        if s in cache:
            return cache[s]
        total = 0
        if s == 1:
            total = nvars + sum(1 for a in arities if a == 0)
        else:
            for a in arities:
                if a == 0:
                    continue
                total += sum(
                    _prod(exact(p) for p in split) for split in _splits(s - 1, a)
                )
        cache[s] = total
        return total

    return sum(exact(s) for s in range(1, max_size + 1))


def _prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


def _splits(total, k):
    if k == 1:
        return [(total,)] if total >= 1 else []
    out = []
    for first in range(1, total - k + 2):
        out.extend((first,) + rest for rest in _splits(total - first, k - 1))
    return out


def naive_terms(sig, variables, max_size) -> set:
    """All terms up to max_size as an unordered set, built independently of
    the package's enumerator."""
    current = {Var(v) for v in variables} | {
        App(i, ()) for i, (_, a) in enumerate(sig.symbols) if a == 0
    }
    everything = {t for t in current if t.size <= max_size}
    # closure pass: keep applying symbols until no new term fits the bound
    changed = True
    while changed:
        changed = False
        pool = list(everything)
        for i, (_, a) in enumerate(sig.symbols):
            if a == 0:
                continue
            for args in product(pool, repeat=a):
                if 1 + sum(x.size for x in args) <= max_size:
                    t = App(i, tuple(args))
                    if t not in everything:
                        everything.add(t)
                        changed = True
    return everything


# ---------------------------------------------------------------------------
# Concrete groups as FiniteAlgebra values matching the groups.th symbol
# order (mul, inv, e).


def z2_group() -> FiniteAlgebra:
    mul = tuple((a + b) % 2 for a in range(2) for b in range(2))
    inv = tuple((-a) % 2 for a in range(2))
    return FiniteAlgebra(2, (2, 1, 0), (mul, inv, (0,)))


def s3_group() -> FiniteAlgebra:
    perms = sorted(permutations(range(3)))

    def compose(p, q):  # p after q
        return tuple(p[q[i]] for i in range(3))

    index = {p: i for i, p in enumerate(perms)}
    mul = tuple(
        index[compose(perms[a], perms[b])] for a in range(6) for b in range(6)
    )
    inv = []
    for p in perms:
        q = [0, 0, 0]
        for i in range(3):
            q[p[i]] = i
        inv.append(index[tuple(q)])
    return FiniteAlgebra(6, (2, 1, 0), (mul, tuple(inv), (index[(0, 1, 2)],)))


# ---------------------------------------------------------------------------
# Rewrite neighbours the direct way: every match of every rule at every
# position is instantiated in full, and only then checked against the size
# cap and against being a no-op.


def preorder_positions(t: Term, path=()):
    """(path, subterm) pairs in preorder, by plain recursion."""
    out = [(path, t)]
    if type(t) is App:
        for i, a in enumerate(t.args):
            out += preorder_positions(a, path + (i,))
    return out


def _first_occurrences(t: Term):
    names = []
    for _, s in preorder_positions(t):
        if type(s) is Var and s.name not in names:
            names.append(s.name)
    return names


def _bind(pattern, subject, binding) -> bool:
    if type(pattern) is Var:
        cur = binding.setdefault(pattern.name, subject)
        return cur == subject
    if type(subject) is not App or subject.sym != pattern.sym:
        return False
    return all(_bind(p, s, binding) for p, s in zip(pattern.args, subject.args))


def reference_neighbors(theory, t: Term, size_cap: int, pool):
    """[(new, RewriteStep)] for each one-step rewrite of t that changes it and
    stays within size_cap: positions in preorder, axioms in order and each
    forwards then backwards, replacement-only variables taking every tuple
    over pool in product order."""
    rules = []
    for i, eq in enumerate(theory.equations):
        if eq.lhs != eq.rhs:
            rules += [(eq.lhs, eq.rhs, i, True), (eq.rhs, eq.lhs, i, False)]
    out = []
    for path, sub in preorder_positions(t):
        for lhs, rhs, eq_index, forward in rules:
            binding = {}
            if not _bind(lhs, sub, binding):
                continue
            extra = [v for v in _first_occurrences(rhs) if v not in binding]
            for combo in product(pool, repeat=len(extra)):
                b = {**binding, **dict(zip(extra, combo))}
                new_sub = substitute(rhs, b)
                if t.size - sub.size + new_sub.size > size_cap:
                    continue
                new = replace_at(t, path, new_sub)
                if new != t:
                    out.append((new, RewriteStep(t, new, eq_index, forward, path, tuple(sorted(b.items())))))
    return out


# ---------------------------------------------------------------------------
# Model search the direct way: after every cell assignment, every ground
# equation instance is evaluated again from scratch. The engine re-checks
# only the instances waiting on the assigned cell, and must produce the same
# stream: the same models at the same costs, and the same pause points. The
# instances come from the engine's _eq_code, which
# test_model_search_instances_match_the_postfix_reference checks apart.


def _eval_code(code, env, tables, k) -> int:
    """Evaluate postfix code over possibly partial tables; -1 = undefined."""
    stack = []
    for op in code:
        if op[0] == 0:
            stack.append(env[op[1]])
        else:
            arity = op[2]
            if arity:
                off = 0
                for a in stack[-arity:]:
                    off = off * k + a
                del stack[-arity:]
            else:
                off = 0
            v = tables[op[1]][off]
            if v < 0:
                return -1
            stack.append(v)
    return stack[0]


class ReferenceModelSearch:
    """Resumable DFS over all size-k models of a theory."""

    def __init__(self, theory: Theory, k: int):
        self.theory = theory
        self.k = k
        sig = theory.signature
        order = sorted(range(len(sig)), key=lambda i: (sig.arity(i), i))
        self.cells = [(s, off) for s in order for off in range(k ** sig.arity(s))]
        self.tables = [[-1] * (k ** sig.arity(i)) for i in range(len(sig))]
        self.instances = []
        for eq in theory.equations:
            cl, cr, vs = _eq_code(eq.lhs, eq.rhs)
            for env in product(range(k), repeat=len(vs)):
                self.instances.append((cl, cr, env))
        self.depth = 0
        self.next_value = [0] * (len(self.cells) + 1)
        self.cost = 0
        self.found: list[tuple[FiniteAlgebra, int]] = []
        self.finished = False
        self.final_cost: Optional[int] = None
        if not self.cells:
            # No table cells to fill: the bare set either is or is not a
            # model, depending on the (symbol-free) equations.
            if self._consistent():
                self._record()
            self.finished = True
            self.final_cost = self.cost

    def _consistent(self) -> bool:
        for cl, cr, env in self.instances:
            self.cost += 1
            a = _eval_code(cl, env, self.tables, self.k)
            if a < 0:
                continue
            b = _eval_code(cr, env, self.tables, self.k)
            if 0 <= b != a:
                return False
        return True

    def _record(self):
        alg = FiniteAlgebra(
            self.k,
            tuple(a for _, a in self.theory.signature.symbols),
            tuple(tuple(tab) for tab in self.tables),
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
                sym, off = self.cells[self.depth]
                self.tables[sym][off] = -1
                return "found"
            v = self.next_value[self.depth]
            if v >= self.k:
                self.next_value[self.depth] = 0
                self.depth -= 1
                if self.depth < 0:
                    self.finished = True
                    self.final_cost = self.cost
                    return "finished"
                sym, off = self.cells[self.depth]
                self.tables[sym][off] = -1
                continue
            self.next_value[self.depth] += 1
            self.cost += 1
            sym, off = self.cells[self.depth]
            self.tables[sym][off] = v
            if self._consistent():
                self.depth += 1
                self.next_value[self.depth] = 0
            else:
                self.tables[sym][off] = -1


# ---------------------------------------------------------------------------
# Countermodel replay the direct way: every assignment becomes a dict and
# both sides are evaluated by plain recursion, one assignment at a time.


def postfix(t: Term, var_pos):
    """Postfix code of t over fixed variable slots, by plain recursion:
    (0, slot) for a variable, (1, sym, arity) for an application."""
    code = []

    def walk(s):
        if type(s) is Var:
            code.append((0, var_pos[s.name]))
        else:
            for a in s.args:
                walk(a)
            code.append((1, s.sym, len(s.args)))

    walk(t)
    return tuple(code)


def equation_vars(lhs: Term, rhs: Term):
    """Variables of lhs, then those only in rhs, in order of first occurrence."""
    left = _first_occurrences(lhs)
    return left + [v for v in _first_occurrences(rhs) if v not in left]


def evaluate(alg: FiniteAlgebra, t: Term, env) -> int:
    if type(t) is Var:
        return env[t.name]
    return alg.op(t.sym, [evaluate(alg, a, env) for a in t.args])


def _falsifying_env(alg: FiniteAlgebra, lhs: Term, rhs: Term, vs):
    """The first assignment of vs falsifying lhs = rhs on alg, or None."""
    for vals in product(range(alg.size), repeat=len(vs)):
        env = dict(zip(vs, vals))
        if evaluate(alg, lhs, env) != evaluate(alg, rhs, env):
            return env
    return None


def reference_satisfies(alg: FiniteAlgebra, theory) -> bool:
    return all(
        _falsifying_env(alg, eq.lhs, eq.rhs, equation_vars(eq.lhs, eq.rhs)) is None
        for eq in theory.equations
    )


def reference_refute(theory, eq: Equation, budget):
    """refute with the same charges over the full-rescan model streams,
    replaying each model one assignment at a time."""
    vs = equation_vars(eq.lhs, eq.rhs)
    spent = 0
    for k in range(1, budget.max_model_size + 1):
        s = theory.derived(ReferenceModelSearch, k)
        idx = 0
        prev_cost = 0
        while True:
            if idx < len(s.found):
                alg, cost_after = s.found[idx]
            elif s.finished:
                spent += s.final_cost - prev_cost
                break
            else:
                # the next model, or the end of the stream, is reached only
                # when its cost fits, however far the stream has already run
                if s.advance(prev_cost + budget.max_steps - spent + 1) == "paused":
                    return Unknown("model search step budget exhausted", detail=k)
                continue
            delta = cost_after - prev_cost
            if spent + delta > budget.max_steps:
                return Unknown("model search step budget exhausted", detail=k)
            spent += delta
            prev_cost = cost_after
            for vals in product(range(k), repeat=len(vs)):
                spent += 1
                if spent > budget.max_steps:
                    return Unknown("model search step budget exhausted", detail=k)
                env = dict(zip(vs, vals))
                if evaluate(alg, eq.lhs, env) != evaluate(alg, eq.rhs, env):
                    return Refuted(alg, env)
            idx += 1
        if spent > budget.max_steps:
            return Unknown("model search step budget exhausted", detail=k)
    return Unknown(f"no countermodel up to size {budget.max_model_size}")


def reference_tri_equal(theory, a: Term, b: Term, budget):
    """tri_equal with its fingerprint loop replayed one assignment at a time."""
    if a == b:
        return ("proved", Proved(RewriteTrace(())))
    nf = catalog_normalizer(theory)
    if nf is not None:
        if nf.key(a) == nf.key(b):
            return ("proved", Proved(NormalFormCertificate(nf.name)))
        return ("refuted", None)
    vs = equation_vars(a, b)
    for alg in theory.derived(_fingerprint_models, min(_FINGERPRINT_SIZE, budget.max_model_size)):
        if alg.size ** len(vs) > _FINGERPRINT_ASSIGNMENT_CAP:
            continue
        env = _falsifying_env(alg, a, b, vs)
        if env is not None:
            return ("refuted", (alg, env))
    p = prove(theory, Equation(a, b), budget)
    if p.is_proved:
        return ("proved", p)
    return ("unknown", p.reason)
