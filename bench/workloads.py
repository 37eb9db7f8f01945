"""Workload definitions: the CLI job lists and the seeded decide-mix stream.

Every input is built here, in benchmark code, from the theory files; the
program under test only receives the generated equations or argv lists.
The reason for each workload is recorded in BENCHMARK.json and LAYERS.md.
"""

from __future__ import annotations

import hashlib
import random

import freealg
from freealg.terms import App, Equation, Var

WORKLOADS = ("decide-mix", "free-carrier", "kernel-scan", "model-enum")
SCALES = ("full", "tiny")

DIAGRAM = "bench/data/pullback3.json"

# Each CLI job is (job id, argv without "--json"). Paths are relative to the
# repository root, which is the working directory of every worker.
_JOBS = {
    ("free-carrier", "full"): [
        ("free-lattice", ["free", "theories/lattice.th", "--vars", "x,y,z", "--bound", "5"]),
        ("preserve-lattice", ["preserve", "theories/lattice.th", "--diagram", DIAGRAM,
                              "--carrier-bound", "3", "--witness-bound", "5"]),
    ],
    ("free-carrier", "tiny"): [
        ("free-lattice", ["free", "theories/lattice.th", "--vars", "x,y", "--bound", "3"]),
        ("preserve-lattice", ["preserve", "theories/lattice.th", "--diagram", DIAGRAM,
                              "--carrier-bound", "2", "--witness-bound", "3"]),
    ],
    ("kernel-scan", "full"): [
        ("kernel-report-lattice", ["kernel-report", "theories/lattice.th"]),
        ("kernel-report-three_perm", ["kernel-report", "theories/three_perm.th"]),
        ("check-preimages-three_perm", ["check-preimages", "theories/three_perm.th"]),
        ("check-preimages-groups", ["check-preimages", "theories/groups.th",
                                    "--term-bound", "7", "--q-bound", "6"]),
    ],
    ("kernel-scan", "tiny"): [
        ("kernel-report-lattice", ["kernel-report", "theories/lattice.th",
                                   "--pair-bound", "1", "--s-bound", "3"]),
        ("kernel-report-three_perm", ["kernel-report", "theories/three_perm.th",
                                      "--pair-bound", "1", "--s-bound", "4"]),
        ("check-preimages-three_perm", ["check-preimages", "theories/three_perm.th",
                                        "--term-bound", "4", "--q-bound", "3"]),
        ("check-preimages-groups", ["check-preimages", "theories/groups.th",
                                    "--term-bound", "4", "--q-bound", "3"]),
    ],
    ("model-enum", "full"): [
        ("models-abelian", ["models", "theories/abelian.th", "--size", "4"]),
    ],
    ("model-enum", "tiny"): [
        ("models-abelian", ["models", "theories/abelian.th", "--size", "2"]),
    ],
}


def cli_jobs(workload: str, scale: str) -> list[tuple[str, list[str]]]:
    return [(job_id, argv + ["--json"]) for job_id, argv in _JOBS[(workload, scale)]]


# ---------------------------------------------------------------------------
# decide-mix
#
# A fixed population (the pool) is drawn once from POOL_SEED; each run's
# --seed samples its queries from the pool. The pool is fixed so that every
# query has a verdict recorded in expected.json. The pool is stratified by
# theory, kind and number of distinct variables (at most two, or three),
# because refuting a true equation in three variables costs several times
# more than in two (every assignment of every cached model is replayed):
# fixed per-stratum quotas keep the work per run steady from seed to seed. The traversal helpers below are the
# benchmark's own, so a change to the program's helpers cannot change the
# pool.

MIX_THEORIES = ("lattice", "three_perm", "malcev", "groups")
KINDS = ("random", "derived")  # random term pairs; pairs known true by rewriting
VARS = ("x", "y", "z")
POOL_SEED = 1
POOL_FACTOR = 2  # pool size per stratum = POOL_FACTOR * full quota
QUOTAS = {
    # per theory and kind: 4 * 2 * 125 = 1000 queries. The 40 three-variable
    # derived malcev and three_perm queries (4%) are the slowest, so the p95
    # latency falls inside the dense two-variable band, not on the edge
    # between the two.
    "full": {2: 105, 3: 20},
    "tiny": {2: 4, 3: 1},
}
MAX_START_SIZE = 5
MAX_DERIVED_SIZE = 9
MAX_REWRITES = 3


def load_theory_file(path: str):
    with open(path, encoding="utf-8") as fh:
        return freealg.parse_theory(fh.read())


def load_theories(names) -> dict:
    return {name: load_theory_file(f"theories/{name}.th") for name in names}


def _positions(t, path=()):
    yield path, t
    if type(t) is App:
        for i, a in enumerate(t.args):
            yield from _positions(a, path + (i,))


def _replace(t, path, new):
    if not path:
        return new
    args = list(t.args)
    args[path[0]] = _replace(args[path[0]], path[1:], new)
    return App(t.sym, tuple(args))


def _substitute(t, binding):
    if type(t) is Var:
        return binding.get(t.name, t)
    return App(t.sym, tuple(_substitute(a, binding) for a in t.args))


def _vars(t) -> set:
    return {s.name for _, s in _positions(t) if type(s) is Var}


def _text(t) -> str:
    if type(t) is Var:
        return t.name
    return f"{t.sym}({','.join(_text(a) for a in t.args)})"


def _random_term(rng: random.Random, sig, size: int):
    if size > 1:
        syms = [i for i, (_, a) in enumerate(sig.symbols) if 1 <= a <= size - 1]
        if syms:
            sym = rng.choice(syms)
            arity = sig.arity(sym)
            cuts = sorted(rng.sample(range(1, size - 1), arity - 1))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [size - 1])]
            return App(sym, tuple(_random_term(rng, sig, p) for p in parts))
    leaves = [Var(v) for v in VARS] + [App(c, ()) for c in sig.constants()]
    return rng.choice(leaves)


def _match(pattern, subject, binding: dict) -> bool:
    if type(pattern) is Var:
        bound = binding.setdefault(pattern.name, subject)
        return bound == subject
    if type(subject) is not App or subject.sym != pattern.sym:
        return False
    return all(_match(p, s, binding) for p, s in zip(pattern.args, subject.args))


def _rewrite_once(rng: random.Random, theory, t):
    """One random axiom application, in either orientation, at any position;
    None when no application keeps the term within MAX_DERIVED_SIZE."""
    candidates = []
    for path, sub in _positions(t):
        for eq in theory.equations:
            for lhs, rhs in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
                binding: dict = {}
                if _match(lhs, sub, binding):
                    candidates.append((path, rhs, binding))
    rng.shuffle(candidates)
    for path, rhs, binding in candidates:
        for v in sorted(_vars(rhs) - binding.keys()):
            binding[v] = Var(rng.choice(VARS))
        new = _replace(t, path, _substitute(rhs, binding))
        if new.size <= MAX_DERIVED_SIZE and new != t:
            return new
    return None


def _derived(rng: random.Random, theory, start) -> Equation:
    rhs = start
    for _ in range(rng.randint(1, MAX_REWRITES)):
        rhs = _rewrite_once(rng, theory, rhs) or rhs
    return Equation(start, rhs)


def _var_bucket(*terms) -> int:
    return max(2, len(set().union(*map(_vars, terms))))


def stratum_key(theory: str, kind: str, bucket: int) -> str:
    return f"{theory}/{kind}/{bucket}"


def build_pool(theories: dict) -> dict:
    """stratum key -> list of distinct, non-trivial equations, in draw order."""
    rng = random.Random(POOL_SEED)
    size = {b: POOL_FACTOR * q for b, q in QUOTAS["full"].items()}
    pool = {}
    for name in MIX_THEORIES:
        theory = theories[name]
        for kind in KINDS:
            buckets = {b: [] for b in size}
            seen = set()
            while any(len(buckets[b]) < size[b] for b in size):
                lhs = _random_term(rng, theory.signature, rng.randint(1, MAX_START_SIZE))
                if kind == "random":
                    eq = Equation(lhs, _random_term(rng, theory.signature, rng.randint(1, MAX_START_SIZE)))
                elif len(buckets[_var_bucket(lhs)]) >= size[_var_bucket(lhs)]:
                    continue  # skip the rewriting: most rewrites keep the variables
                else:
                    eq = _derived(rng, theory, lhs)
                bucket = _var_bucket(eq.lhs, eq.rhs)
                if eq.lhs == eq.rhs or (eq.lhs, eq.rhs) in seen or len(buckets[bucket]) >= size[bucket]:
                    continue
                seen.add((eq.lhs, eq.rhs))
                buckets[bucket].append(eq)
            for b, eqs in buckets.items():
                pool[stratum_key(name, kind, b)] = eqs
    return pool


def pool_digest(pool: dict) -> str:
    """Fingerprint of the pool, so expected.json is never read against a
    different population."""
    h = hashlib.sha256()
    for key in sorted(pool):
        for eq in pool[key]:
            h.update(f"{key}|{_text(eq.lhs)}={_text(eq.rhs)}\n".encode())
    return h.hexdigest()


def sample_queries(pool: dict, seed: int, scale: str) -> list[tuple[str, int, Equation]]:
    """The run's query stream: (stratum key, pool index, equation), with
    QUOTAS[scale] queries per stratum, interleaved across theories."""
    rng = random.Random(seed)
    out = []
    for key in sorted(pool):
        quota = QUOTAS[scale][int(key.rsplit("/", 1)[1])]
        for i in sorted(rng.sample(range(len(pool[key])), quota)):
            out.append((key, i, pool[key][i]))
    rng.shuffle(out)
    return out
