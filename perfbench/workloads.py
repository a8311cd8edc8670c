"""The four benchmark workloads.

Each workload draws an endless operation sequence from its seed (``make``),
runs one operation at a time against the package's public API (``run``),
and checks each answer afterwards (``check``).  Making inputs and checking
answers happen outside the timed region, with the tracer switched off.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import subprocess
from itertools import combinations, permutations
from math import factorial
from pathlib import Path

import oracles as orc
from weakorder import cli, dyer, lattices, sn, tito, total_orders as tot
from weakorder.sn import Permutation
from weakorder.tito import WANING, WAXING, Block, Tito


class Workload:
    """One closed-loop operation stream; subclasses fill in ``make``, ``run``
    and ``check``."""

    name: str
    # The highest percentile that keeps at least ten samples beyond it at the
    # sample count a 25-second run collects on a 2-vCPU machine.
    tail_pct: float
    # operation kinds and how often each comes up in one round
    MIX: dict[str, int]
    # every SAMPLE_EVERY-th operation also gets the costlier checks
    SAMPLE_EVERY = 8

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.kinds = rounds(self.rng, self.MIX)
        self.count = 0

    def next_op(self):
        self.count += 1
        return self.make(next(self.kinds))

    @property
    def sampled(self) -> bool:
        return self.count % self.SAMPLE_EVERY == 1

    def make(self, kind: str):
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, result) -> bool:
        raise NotImplementedError


def rounds(rng: random.Random, mix: dict[str, int]):
    """Operation kinds in shuffled rounds, each round holding every kind its
    fixed number of times, so the mix of a run does not depend on the seed."""
    while True:
        kinds = [kind for kind, count in mix.items() for _ in range(count)]
        rng.shuffle(kinds)
        yield from kinds


# ---------------------------------------------------------------------------
# periodic orders at period 16


def random_blocks(rng: random.Random, n: int, lo: int, hi: int) -> list[list]:
    """Residues split into blocks, each with a random direction and random
    window entries in [lo, hi]; the idea of the test suite's generator."""
    residues = list(range(1, n + 1))
    rng.shuffle(residues)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    blocks = []
    for start, stop in zip([0] + cuts, cuts + [n]):
        window = [rng.choice(range(lo + (r - lo) % n, hi + 1, n)) for r in residues[start:stop]]
        blocks.append([rng.choice((WAXING, WANING)), window])
    return blocks


def step_blocks(rng: random.Random, blocks: list[list], up: bool) -> list[list]:
    """One cover step: swap two neighbours of a window, or turn a singleton
    block around.  Swapping a smaller entry past a larger one adds exactly
    one inversion class, and a waxing singleton turned waning only adds."""
    moves = []
    for bi, (direction, window) in enumerate(blocks):
        if len(window) == 1:
            if not up or direction == WAXING:
                moves.append((bi, None))
        for p in range(len(window) - 1):
            if not up or window[p] < window[p + 1]:
                moves.append((bi, p))
    out = [[d, list(w)] for d, w in blocks]
    if not moves:
        return out
    bi, p = rng.choice(moves)
    if p is None:
        out[bi][0] = WANING if out[bi][0] == WAXING else WAXING
    else:
        w = out[bi][1]
        w[p], w[p + 1] = w[p + 1], w[p]
    return out


def make_tito(n: int, blocks: list[list]) -> Tito:
    return tito.normalize_tito(Tito(n, tuple(Block(d, tuple(w)) for d, w in blocks)))


class TitoLarge(Workload):
    """Joins, meets and their biclosed images at period 16."""

    name = "tito-large"
    tail_pct = 99.0
    N = 16
    CHAIN_SPAN = 4 * N
    MIX = {"join": 2, "meet": 2, "dyer_join": 2, "dyer_meet": 2, "leq": 1, "arcs": 1}

    def _near(self, base, up=False):
        blocks = base
        for _ in range(self.rng.randint(1, 6)):
            blocks = step_blocks(self.rng, blocks, up)
        return make_tito(self.N, blocks)

    def make(self, kind: str):
        rng, n = self.rng, self.N
        base = random_blocks(rng, n, -n, 2 * n)
        # sampled operations also get the chain-reachability check
        sample = self.sampled
        if kind == "leq":
            x = make_tito(n, base)
            y = self._near(base, up=rng.random() < 0.5)
            return kind, (x, y), sample
        if kind == "arcs":
            return kind, (self._near(base),), sample
        inputs = tuple(self._near(base) for _ in range(rng.randint(2, 4)))
        if kind.startswith("dyer"):
            inputs = tuple(dyer.dyer_normal_form(t) for t in inputs)
        return kind, inputs, sample

    def run(self, op):
        kind, inputs, _ = op
        n = self.N
        if kind == "join":
            return tito.join_tito(list(inputs), n)
        if kind == "meet":
            return tito.meet_tito(list(inputs), n)
        if kind == "dyer_join":
            return dyer.dyer_join(list(inputs), n)
        if kind == "dyer_meet":
            return dyer.dyer_meet(list(inputs), n)
        if kind == "leq":
            return tito.leq_tito(*inputs)
        return tito.join_of_cyclic_collection(tito.lower_wrapped_arcs(inputs[0]), n)

    def check(self, op, result) -> bool:
        kind, inputs, sample = op
        n = self.N
        if kind == "leq":
            span = orc.tito_span(inputs, n)
            x, y = (orc.tito_rows(t, span) for t in inputs)
            return result is orc.rows_leq(x, y)
        if kind == "arcs":
            (t,) = inputs
            if orc.widely_generated(t):
                return result == t
            # The result lies below t and holds each lower wall of t, the
            # inversion its arc's join-irreducible adds.
            span = orc.tito_span([t, result], n)
            rows = orc.tito_rows(result, span)
            if not orc.rows_leq(rows, orc.tito_rows(t, span)):
                return False
            return all(rows[x - 1] >> d & 1 for x, d in orc.lower_walls(t, span))
        biclosed = kind.startswith("dyer")
        if biclosed:
            if dyer.parse_dyer_element(dyer.format_dyer_element(result), n) != result:
                return False
            reps, res = [x.rep for x in inputs], result.rep
        else:
            if tito.parse_windows(tito.format_windows(result), n) != result:
                return False
            reps, res = list(inputs), result
        span = max(self.CHAIN_SPAN, orc.tito_span(reps + [res], n))
        # biclosed images are compared on real inversions only
        keep = orc.real_mask(n, span) if biclosed else -1
        rows = orc.tito_rows(res, span)
        input_rows = [orc.tito_rows(t, span) for t in reps]
        meet = kind.endswith("meet")
        if not all(orc.rows_leq(*((rows, r) if meet else (r, rows)), keep) for r in input_rows):
            return False
        if sample:
            chain = orc.chain_rows(input_rows, n, span, co=meet)
            return all(a & keep == b & keep for a, b in zip(chain, rows))
        return True


# ---------------------------------------------------------------------------
# permutations of [1..80] and total orders with 60-wide support


def near_word(rng: random.Random, word, steps: int, up: bool = False) -> tuple[int, ...]:
    """Apply adjacent swaps; with up, only swaps that add an inversion."""
    w = list(word)
    for _ in range(steps):
        moves = [p for p in range(len(w) - 1) if not up or w[p] < w[p + 1]]
        if not moves:
            break
        p = rng.choice(moves)
        w[p], w[p + 1] = w[p + 1], w[p]
    return tuple(w)


def tot_of_word(word) -> tot.FiniteTotalOrder:
    pos = {v: k for k, v in enumerate(word)}
    return tot.FiniteTotalOrder(
        frozenset((u, v) for u in word for v in word if u < v and pos[v] < pos[u])
    )


class PermLarge(Workload):
    """Joins and meets of nearby permutations and total orders."""

    name = "perm-large"
    tail_pct = 99.0
    N = 80
    WIDTH = 60
    MIX = {"join_sn": 5, "meet_sn": 5, "leq_sn": 2, "join_tot": 4, "meet_tot": 4}

    def make(self, kind: str):
        rng = self.rng
        # sampled operations also get the parse(format(x)) round trip
        sample = self.sampled
        if kind.endswith("sn"):
            base = list(range(1, self.N + 1))
            rng.shuffle(base)
            if kind == "leq_sn":
                words = (tuple(base), near_word(rng, base, rng.randint(1, 10), up=rng.random() < 0.5))
            else:
                words = tuple(near_word(rng, base, rng.randint(1, 10)) for _ in range(rng.randint(2, 3)))
            return kind, words, [Permutation(self.N, w) for w in words], sample
        lo = rng.randint(-20, 20)
        base = list(range(lo, lo + self.WIDTH))
        rng.shuffle(base)
        words = tuple(near_word(rng, base, rng.randint(1, 10)) for _ in range(rng.randint(2, 3)))
        return kind, words, [tot_of_word(w) for w in words], sample

    def run(self, op):
        kind, _, inputs, _ = op
        if kind == "join_sn":
            return sn.join_sn(inputs, self.N)
        if kind == "meet_sn":
            return sn.meet_sn(inputs, self.N)
        if kind == "leq_sn":
            return sn.leq_sn(*inputs)
        return tot.join_tot(inputs) if kind == "join_tot" else tot.meet_tot(inputs)

    def check(self, op, result) -> bool:
        kind, words, _, sample = op
        values = sorted(words[0])
        rows = [orc.rows_of_word(w, values) for w in words]
        if kind == "leq_sn":
            return result is orc.rows_leq(*rows)
        expected = orc.join_rows(rows) if kind.startswith("join") else orc.meet_rows(rows)
        if kind.endswith("sn"):
            if sample and sn.parse_perm(sn.format_perm(result)) != result:
                return False
            return orc.rows_of_word(result.one_line, values) == expected
        if sample and tot.invs_from_json(tot.invs_to_json(result)) != result:
            return False
        # a pair outside the window has no row and raises, which counts as wrong
        return orc.rows_of_pairs(result.invs, values) == expected


# ---------------------------------------------------------------------------
# lab sessions on finite quotients


class LabQuotients(Workload):
    """Build a poset, check it is a lattice, check both semidistributive laws."""

    name = "lab-quotients"
    tail_pct = 75.0
    # The width-6 quotient at period 2 and the README quotient are cheap
    # sessions; they stay a small share so the median sits in one class.
    MIX = {"sn": 6, "tot": 6, "tito3": 6, "tito2": 1, "readme": 1}

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.words: dict[tuple[int, int, int], set] = {}

    def make(self, kind: str):
        rng = self.rng
        extra = None
        if kind == "sn":
            # S_5 sessions also collapse a cover of S_4 and ask for a
            # canonical join representation there
            args = (5,)
            w = rng.sample(range(1, 5), 4)
            p = rng.randrange(3)
            v = list(w)
            v[p], v[p + 1] = v[p + 1], v[p]
            label = "".join(map(str, rng.sample(range(1, 5), 4)))
            extra = ("".join(map(str, w)), "".join(map(str, v)), label)
        elif kind == "tot":
            a = rng.randint(-3, 3)
            args = (a, a + 4)
        elif kind == "readme":
            args = (2, 1, 4)
        else:
            n = 3 if kind == "tito3" else 2
            a = rng.randint(1, n)
            args = (n, a, a + 5)
        return kind, args, extra

    def run(self, op):
        kind, args, extra = op
        out = {}
        if kind == "sn":
            poset = lattices.weak_order_poset(*args)
        elif kind == "tot":
            poset = lattices.tot_quotient(*args)
        else:
            out["quotient"] = lattices.tito_quotient(*args)
            poset = out["quotient"].poset
        out["poset"] = poset
        out["lattice"] = lattices.check_lattice(poset).is_lattice
        out["jsd"] = lattices.is_join_semidistributive_fin(poset)
        out["msd"] = lattices.is_meet_semidistributive_fin(poset)
        if extra is not None:
            s4 = lattices.weak_order_poset(4)
            x, y, label = extra
            out["congruence"] = lattices.congruence_generated_by(s4, [(x, y)])
            out["cjr"] = lattices.canonical_join_rep_fin(s4, label)
        return out

    def check(self, op, out) -> bool:
        kind, args, extra = op
        poset = out["poset"]
        if not (out["lattice"] and out["jsd"] and out["msd"]):
            return False
        if kind in ("sn", "tot"):
            width = 5
            values = list(range(1, 6)) if kind == "sn" else list(range(args[0], args[1] + 1))
            expected = set(permutations(values))
        else:
            n, a, b = args
            width = b - a + 1
            values = list(range(a, b + 1))
            if args not in self.words:
                self.words[args] = orc.tito_words(n, a, b)
            expected = self.words[args]
        words = [_label_word(label) for label in poset.elements]
        if set(words) != expected or len(words) != len(expected):
            return False
        if kind in ("sn", "tot") and len(words) != factorial(width):
            return False
        leq = orc.containment_matrix([orc.word_mask(w) for w in words])
        if not (leq == poset.leq).all():
            return False
        cover_count = len(orc.covers(leq))
        if kind in ("sn", "tot") and cover_count != factorial(width) * (width - 1) // 2:
            return False
        if kind == "readme" and (len(words), cover_count) != (12, 14):
            return False
        if "quotient" in out:
            n = args[0]
            for label, rep in out["quotient"].reps.items():
                keys = orc.tito_keys(orc.tito_blocks(rep), n, values[0], values[-1])
                if tuple(sorted(values, key=keys.__getitem__)) != _label_word(label):
                    return False
        if extra is not None:
            return _check_s4(extra, out["congruence"], out["cjr"])
        return True


def _label_word(label: str) -> tuple[int, ...]:
    if "," in label:
        return tuple(int(v) for v in label.split(","))
    return tuple(int(c) for c in label)


def _check_s4(extra, partition, cjr) -> bool:
    x, y, label = extra
    values = [1, 2, 3, 4]
    cls = partition.class_of
    if cls[x] != cls[y]:
        return False
    words = ["".join(map(str, w)) for w in permutations(values)]
    rows = {w: orc.rows_of_word(_label_word(w), values) for w in words}
    by_rows = {tuple(r): w for w, r in rows.items()}
    # a lattice congruence: joins and meets with anything respect the classes
    for u in words:
        for v in words:
            if u >= v or cls[u] != cls[v]:
                continue
            for z in words:
                for op in (orc.join_rows, orc.meet_rows):
                    a = by_rows[tuple(op([rows[u], rows[z]]))]
                    b = by_rows[tuple(op([rows[v], rows[z]]))]
                    if cls[a] != cls[b]:
                        return False
    # the canonical joinands are join-irreducible, one per descent, and
    # join back to the element
    word = _label_word(label)
    if cjr is None or len(cjr) != orc.descents(word):
        return False
    if any(orc.descents(_label_word(j)) != 1 for j in cjr):
        return False
    joined = orc.join_rows([rows[j] for j in cjr]) if cjr else [0] * 4
    return joined == rows[label]


# ---------------------------------------------------------------------------
# one fresh CLI process per operation


README_COMMANDS = [
    (["sn", "join", "213", "132"], "321\n"),
    (["sn", "arcs", "25143"], "(1,5|2|3 4)\n(3,4||)\n"),
    (["tot", "join", "2,1", "3,2"], "3,2,1\n"),
    (["tito", "join", "[2,1]", "[~1,2]", "--n", "2"], "[~2,1]\n"),
    (["tito", "cjr", "[~2,1]", "--n", "2"], "<1,2||>\n<2,3||>\n"),
    (["dyer", "enumerate", "--n", "3"], None),
    (
        ["lab", "check", "--kind", "tito", "--n", "2", "--a", "1", "--b", "4"],
        "elements: 12\ncovers: 14\nlattice: yes\n"
        "join-semidistributive: yes\nmeet-semidistributive: yes\n",
    ),
    (["render", "hasse", "--kind", "sn", "--n", "3", "--out", "hasse.dot"], None),
]

_EDGE = re.compile(r'^  "([^"]+)" -> "([^"]+)";$', re.M)


class CliCold(Workload):
    """Each operation is one fresh ``python -m weakorder.cli`` process."""

    name = "cli-cold"
    tail_pct = 85.0
    MIX = {"readme": 10, "sn": 7, "tot": 6, "tito": 6, "dyer": 5, "lab": 5, "render": 4, "error": 7}

    def __init__(self, seed: int, workdir: Path, env: dict, runner: list[str]) -> None:
        super().__init__(seed)
        self.workdir = workdir
        self.env = env
        self.runner = runner

    def make(self, kind: str):
        if kind == "readme":
            argv, expected = self.rng.choice(README_COMMANDS)
            argv = [f"out-{self.count}" if a == "hasse.dot" else a for a in argv]
            return kind, argv, 0, expected
        if kind in ("tito", "dyer"):
            argv, code, note = self._periodic(kind)
        else:
            argv, code, note = getattr(self, "_" + kind)()
        return kind, argv, code, note

    # each maker returns argv, the expected exit code, and what the oracle needs

    def _sn(self):
        rng = self.rng
        n = rng.randint(2, 6)
        action = rng.choice(("join", "meet", "leq"))
        count = 2 if action == "leq" else rng.randint(2, 3)
        words = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(count)]
        return ["sn", action, *("".join(map(str, w)) for w in words)], 0, (action, words)

    def _tot(self):
        rng = self.rng
        action = rng.choice(("join", "meet", "leq"))
        count = 2 if action == "leq" else rng.randint(2, 3)
        words = []
        for _ in range(count):
            lo = rng.randint(-3, 3)
            w = list(range(lo, lo + rng.randint(2, 6)))
            rng.shuffle(w)
            words.append(tuple(w))
        # argparse reads a word that starts with a negative value as a flag,
        # so the words follow "--"
        return ["tot", action, "--", *(",".join(map(str, w)) for w in words)], 0, (action, words)

    def _periodic(self, sub):
        rng = self.rng
        n = rng.randint(1, 3)
        action = rng.choice(("join", "meet", "leq"))
        count = 2 if action == "leq" else rng.randint(2, 3)
        ts = [make_tito(n, random_blocks(rng, n, -n, 2 * n)) for _ in range(count)]
        args = [tito.format_windows(t) for t in ts]
        return [sub, action, *args, "--n", str(n)], 0, (action, n)

    def _lab(self):
        rng = self.rng
        action = rng.choice(("check", "quotient"))
        kind = rng.choice(("sn", "tot", "tito"))
        if kind == "sn":
            flags = ["--kind", "sn", "--n", str(rng.randint(1, 4))]
        elif kind == "tot":
            a = rng.randint(-2, 2)
            flags = ["--kind", "tot", "--a", str(a), "--b", str(a + rng.randint(1, 3))]
        else:
            a = rng.randint(1, 2)
            flags = ["--kind", "tito", "--n", "2", "--a", str(a), "--b", str(a + rng.randint(1, 4))]
        return ["lab", action, *flags], 0, None

    def _render(self):
        rng = self.rng
        if rng.random() < 0.5:
            n = rng.randint(2, 4)
            return ["render", "hasse", "--kind", "sn", "--n", str(n)], 0, ("hasse", n)
        n = rng.randint(3, 6)
        a = rng.randint(1, n - 1)
        b = rng.randint(a + 1, n)
        inner = list(range(a + 1, b))
        left = [x for x in inner if rng.random() < 0.5]
        right = [x for x in inner if x not in left]
        arc = f"({a},{b}|{' '.join(map(str, left))}|{' '.join(map(str, right))})"
        mode = rng.choice(("line", "circle"))
        return ["render", "arcs", arc, "--n", str(n), "--mode", mode], 0, ("arcs", n)

    def _error(self):
        rng = self.rng
        n = rng.randint(2, 4)
        word = "".join(map(str, rng.sample(range(1, n + 1), n)))
        cases = [
            (["sn", "join", word + "x", word], 2),
            (["sn", "join", word, word + str(n + 1)], 1),
            (["tito", "join", "[1,1]", "--n", "2"], 2),
            (["tito", "cjr", "[1][2]", "--n", "2"], 1),
            (["lab", "check", "--kind", "sn", "--n", str(rng.randint(8, 9))], 1),
            (["tot", "frobnicate", "2,1"], 2),
            (["sn", "flip", "213", "(2,3)"], 1),
            (["dyer", "join", "[2,1]"], 2),
        ]
        argv, code = rng.choice(cases)
        return argv, code, None

    def run(self, op):
        _, argv, _, _ = op
        argv = [str(self.workdir / a) if a.startswith("out-") else a for a in argv]
        # No timeout: with one, the wait for the exit polls in growing sleeps.
        proc = subprocess.run([*self.runner, *argv], capture_output=True, env=self.env, cwd=self.workdir)
        return proc.returncode, proc.stdout.decode(), _read_out(argv)

    def check(self, op, result) -> bool:
        kind, argv, code, note = op
        got_code, stdout, written = result
        ref_argv = [str(self.workdir / ("ref-" + a)) if a.startswith("out-") else a for a in argv]
        ref_code, ref_stdout = _in_process(ref_argv)
        if (got_code, stdout, written) != (code, ref_stdout, _read_out(ref_argv)) or ref_code != code:
            return False
        if code != 0:
            return stdout == ""
        if kind == "readme":
            if note is not None:
                return stdout == note
            if argv[0] == "dyer":
                # the biclosed sets of S_3 are its six inversion sets
                got = [frozenset(map(tuple, json.loads(line))) for line in stdout.splitlines()]
                want = {
                    frozenset((a, b) for a, b in combinations((1, 2, 3), 2) if w.index(b) < w.index(a))
                    for w in permutations((1, 2, 3))
                }
                return len(got) == 6 and set(got) == want
            return _hasse_ok(written, 3)
        if kind in ("tito", "dyer"):
            return self._check_periodic(argv, note, stdout, kind == "dyer")
        return getattr(self, "_check_" + kind)(argv, note, stdout)

    def _check_sn(self, argv, note, stdout):
        action, words = note
        n = len(words[0])
        if action == "leq":
            a, b = (orc.rows_of_word(w, list(range(1, n + 1))) for w in words)
            return stdout == ("true\n" if orc.rows_leq(a, b) else "false\n")
        want = orc.brute_join_sn(words, n) if action == "join" else orc.brute_meet_sn(words, n)
        return want is not None and stdout == "".join(map(str, want)) + "\n"

    def _check_tot(self, argv, note, stdout):
        action, words = note
        values = list(range(min(min(w) for w in words), max(max(w) for w in words) + 1))
        rows = [orc.rows_of_word(w, values) for w in words]
        if action == "leq":
            return stdout == ("true\n" if orc.rows_leq(*rows) else "false\n")
        want = orc.join_rows(rows) if action == "join" else orc.meet_rows(rows)
        text = stdout.strip()
        got = [0] * len(values) if text == "standard" else orc.rows_of_word(
            tuple(int(v) for v in text.split(",")), values
        )
        return got == want

    def _check_periodic(self, argv, note, stdout, dyer_kind):
        action, n = note
        body = lambda s: s[5:] if dyer_kind and s.startswith("dyer:") else s
        inputs = [tito.parse_windows(body(a), n) for a in argv[2:-2]]
        if dyer_kind:
            inputs = [dyer.dyer_normal_form(t).rep for t in inputs]
        if action == "leq":
            span = orc.tito_span(inputs, n)
            keep = orc.real_mask(n, span) if dyer_kind else -1
            a, b = (orc.tito_rows(t, span) for t in inputs)
            return stdout == ("true\n" if orc.rows_leq(a, b, keep) else "false\n")
        res = tito.parse_windows(body(stdout.strip()), n)
        span = max(4 * n, orc.tito_span(inputs + [res], n))
        keep = orc.real_mask(n, span) if dyer_kind else -1
        chain = orc.chain_rows([orc.tito_rows(t, span) for t in inputs], n, span, co=action == "meet")
        return all(a & keep == b & keep for a, b in zip(chain, orc.tito_rows(res, span)))

    def _check_lab(self, argv, note, stdout):
        flags = dict(zip(argv[2::2], argv[3::2]))
        if flags["--kind"] == "sn":
            words = set(permutations(range(1, int(flags["--n"]) + 1)))
        elif flags["--kind"] == "tot":
            words = set(permutations(range(int(flags["--a"]), int(flags["--b"]) + 1)))
        else:
            words = orc.tito_words(2, int(flags["--a"]), int(flags["--b"]))
        words = sorted(words)
        cov = orc.covers(orc.containment_matrix([orc.word_mask(w) for w in words]))
        if argv[1] == "check":
            return stdout == (
                f"elements: {len(words)}\ncovers: {len(cov)}\nlattice: yes\n"
                "join-semidistributive: yes\nmeet-semidistributive: yes\n"
            )
        data = json.loads(stdout)
        got_words = [_label_word(e) for e in data["elements"]]
        got_cov = {(_label_word(a), _label_word(b)) for a, b in data["covers"]}
        return sorted(got_words) == words and got_cov == {(words[i], words[j]) for i, j in cov}

    def _check_render(self, argv, note, stdout):
        what, n = note
        if what == "hasse":
            return _hasse_ok(stdout, n)
        return stdout.startswith("<svg ") and stdout.endswith("</svg>\n") and stdout.count("<path ") == 1


def _hasse_ok(dot: str | None, n: int) -> bool:
    if not dot or not dot.startswith("digraph hasse {"):
        return False
    words = sorted(permutations(range(1, n + 1)))
    cov = orc.covers(orc.containment_matrix([orc.word_mask(w) for w in words]))
    want = {("".join(map(str, words[i])), "".join(map(str, words[j]))) for i, j in cov}
    return set(_EDGE.findall(dot)) == want and len(_EDGE.findall(dot)) == len(want)


def _read_out(argv: list[str]) -> str | None:
    if "--out" not in argv:
        return None
    path = Path(argv[argv.index("--out") + 1])
    try:
        return path.read_text(encoding="utf-8")
    finally:
        path.unlink(missing_ok=True)


def _in_process(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of the same command run inside this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


IN_PROCESS = {w.name: w for w in (TitoLarge, PermLarge, LabQuotients)}
NAMES = ["cli-cold", "tito-large", "perm-large", "lab-quotients"]
