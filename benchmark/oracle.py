"""Independent oracles for the benchmark's answers.

Nothing here calls a garnorm algorithm.  Tables are read once through
``NormTable.entry`` and machines once through ``MealyMachine.transitions``;
everything after that is plain loops over integer ids, written for
clarity rather than speed.  The oracles run only outside the timed phase.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

#: Applications a naive normalisation may make before it is declared stuck.
NAIVE_STEP_CAP = 1_000_000
#: The iteration cap of ``garnorm.breadth``'s alternating sequences.
BREADTH_CAP = 64


class OracleTable:
    """A pair map over letter ids, read once through the public API."""

    def __init__(self, table):
        syms = table.alphabet.symbols
        self.g = len(syms)
        self.map = {}
        for a in syms:
            for b in syms:
                c, d = table.entry(a, b)
                self.map[a.id, b.id] = (c.id, d.id)

    def fixed(self, a: int, b: int) -> bool:
        return self.map[a, b] == (a, b)

    def is_normal(self, w) -> bool:
        return all(self.fixed(w[i], w[i + 1]) for i in range(len(w) - 1))

    def idempotent(self) -> bool:
        return all(self.map[v] == v for v in self.map.values())

    def naive_nf(self, w) -> tuple[int, ...]:
        """Leftmost rewriting: apply the table at the leftmost unfixed pair
        until none is left."""
        w = list(w)
        i = 0
        steps = 0
        while i < len(w) - 1:
            c, d = self.map[w[i], w[i + 1]]
            if (c, d) == (w[i], w[i + 1]):
                i += 1
                continue
            w[i], w[i + 1] = c, d
            i = max(i - 1, 0)
            steps += 1
            if steps > NAIVE_STEP_CAP:
                raise RuntimeError("naive rewriting did not terminate")
        return tuple(w)

    def successors(self, w):
        out = []
        for i in range(len(w) - 1):
            c, d = self.map[w[i], w[i + 1]]
            if (c, d) != (w[i], w[i + 1]):
                out.append(w[:i] + (c, d) + w[i + 2 :])
        return out

    def reachable_normals(self, n: int) -> dict:
        """Every length-n word -> the set of normal words it reaches by any
        sequence of applications: a fixpoint over the forward rewrite graph,
        propagated from the normal words to their predecessors."""
        words = list(itertools.product(range(self.g), repeat=n))
        preds = {w: [] for w in words}
        for w in words:
            for v in self.successors(w):
                preds[v].append(w)
        reach = {w: set() for w in words}
        work = []
        for w in words:
            if self.is_normal(w):
                reach[w].add(w)
                work.append(w)
        while work:
            w = work.pop()
            for p in preds[w]:
                before = len(reach[p])
                reach[p] |= reach[w]
                if len(reach[p]) != before:
                    work.append(p)
        return reach

    def alternating(self, triple, target, first: int):
        """Alternating applications from 0-based position ``first`` until
        ``target``; every application counts.  None past the cap."""
        w = triple
        pos = first
        for count in range(BREADTH_CAP + 1):
            if w == target:
                return count
            c, d = self.map[w[pos], w[pos + 1]]
            w = (c, d, w[2]) if pos == 0 else (w[0], c, d)
            pos = 1 - pos
        return None

    def breadth(self):
        """(d, p) with None for an unbounded coordinate, or None when some
        triple does not reach exactly one normal word."""
        d = p = 0
        for triple, normals in self.reachable_normals(3).items():
            if len(normals) != 1:
                return None
            (target,) = normals
            cd = self.alternating(triple, target, 1)
            cp = self.alternating(triple, target, 0)
            d = None if d is None or cd is None else max(d, cd)
            p = None if p is None or cp is None else max(p, cp)
        return d, p

    def growth(self, k_max: int) -> list[int]:
        """Normal words of length k, as the entry sum of A^(k-1) where A is
        the 0/1 matrix of fixed pairs."""
        g = self.g
        row = [1] * g  # number of normal words of the current length ending in each letter
        out = [g]
        for _ in range(k_max - 1):
            row = [sum(row[a] for a in range(g) if self.fixed(a, b)) for b in range(g)]
            out.append(sum(row))
        return out


def expected_report(t: OracleTable, max_len: int) -> dict:
    """The witness sets ``verify_normalisation`` must report, computed by
    brute closure of reachable normal words at each size."""
    nf = {(a,): (a,) for a in range(t.g)}
    dead = set()
    confl = {}
    for n in range(2, max_len + 1):
        for w, normals in t.reachable_normals(n).items():
            if len(normals) == 1:
                nf[w] = next(iter(normals))
            elif normals:
                confl[w] = normals
            else:
                dead.add(w)
    axioms = set()
    for n in range(2, max_len + 1):
        for s in itertools.product(range(t.g), repeat=n):
            ns = nf.get(s)
            if ns is None:
                continue
            for i in range(n - 1):
                for j in range(i + 2, n + 1):
                    nw = nf.get(s[i:j])
                    if nw is None:
                        continue
                    nl = nf.get(s[:i] + nw + s[j:])
                    if nl is not None and nl != ns:
                        axioms.add((s[:i], s[i:j], s[j:]))
    idem = {k for k, v in t.map.items() if t.map[v] != v}
    return {"idempotence": idem, "dead": dead, "confluence": confl, "axioms": axioms}


def check_report(report, want: dict) -> str | None:
    ids = lambda w: w.ids()
    idem = {(a.id, b.id) for (a, b), _, _ in report.idempotence_failures}
    if idem != want["idempotence"]:
        return "idempotence failures differ"
    if {ids(w) for w in report.not_normalising} != want["dead"]:
        return "not_normalising words differ"
    got = {}
    for w, x, y in report.not_confluent:
        got[ids(w)] = (ids(x), ids(y))
    if set(got) != set(want["confluence"]):
        return "not_confluent words differ"
    for w, (x, y) in got.items():
        if x == y or x not in want["confluence"][w] or y not in want["confluence"][w]:
            return "not_confluent witness is not two distinct reachable normal words"
    axioms = {(ids(u), ids(w), ids(v)) for u, w, v, _, _ in report.axiom_failures}
    if axioms != want["axioms"]:
        return "axiom failures differ"
    return None


class OracleMachine:
    """Transition arrays of a Mealy machine, read once through the public
    ``transitions`` listing."""

    def __init__(self, m):
        self.q = len(m.states)
        self.s = len(m.alphabet)
        self.nxt = [[0] * self.s for _ in range(self.q)]
        self.out = [[0] * self.s for _ in range(self.q)]
        for q, i, nq, o in m.transitions():
            self.nxt[q.id][i.id] = nq.id
            self.out[q.id][i.id] = o.id

    def act(self, states, letters) -> tuple[int, ...]:
        """The state word's production function: the first state acts first."""
        w = tuple(letters)
        for q in states:
            res = []
            for x in w:
                res.append(self.out[q][x])
                q = self.nxt[q][x]
            w = tuple(res)
        return w

    def distinguishes(self, u, v, w) -> bool:
        return self.act(u, w) != self.act(v, w)

    def agree_up_to(self, u, v, n: int) -> bool:
        return not any(
            self.distinguishes(u, v, w)
            for k in range(1, n + 1)
            for w in itertools.product(range(self.s), repeat=k)
        )


# ---------------------------------------------------------------------------
# invariants of presented monoids


def braid_perm(word: str, strands: int) -> tuple[int, ...]:
    """Permutation image of a positive braid word over a, b, c, ...: letter
    number i swaps positions i and i+1."""
    p = list(range(strands))
    for ch in word:
        i = ord(ch) - ord("a")
        p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


def bs10_invariant(word: str):
    """A complete invariant of <a, b : ab = a>, whose elements are b^m a^n."""
    first_a = word.find("a")
    if first_a < 0:
        return (len(word), 0)
    return (first_a, word.count("a"))


def bs32_invariant(word: str):
    """The affine map of <a, b : ab^3 = b^2 a> acting on the rationals from
    the left letter first, with a: x -> 3x/2 and b: x -> x + 1."""
    s, t = Fraction(1), Fraction(0)
    for ch in word:
        if ch == "a":
            s, t = s * Fraction(3, 2), t * Fraction(3, 2)
        else:
            t += 1
    return (s, t)


def braid_invariant(strands: int):
    return lambda word: (len(word), braid_perm(word, strands))

