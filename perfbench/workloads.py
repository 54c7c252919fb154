"""Seeded request streams for the three benchmark workloads.

A stream turns a seed into an endless, reproducible sequence of
`symcan serve` request lines. The K-Matrices come from the program's own
generator (`symcan generate`), one process per matrix, generated on first
use; the server only ever sees the finished request lines.

Matrix sizes are fixed per workload and only their content follows the
seed, so every seed asks for the same amount of work and the figures of
different seeds are comparable.
"""

import json
import subprocess

MASK = (1 << 64) - 1
GOLDEN = 0.6180339887498949


def mix(x):
    """splitmix64 finaliser: one well-spread 64-bit value per input."""
    x = (x + 0x9E3779B97F4A7C15) & MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


class Rng:
    """splitmix64 generator; unlike `random`, fixed across Python versions."""

    def __init__(self, seed):
        self.state = mix(seed & MASK)

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        return mix(self.state)

    def below(self, n):
        return self.next() % n

    def uniform(self):
        return (self.next() >> 11) / float(1 << 53)


class Matrix:
    """One generated K-Matrix: CSV text, its JSON spelling, message names."""

    def __init__(self, symcan, seed, messages):
        self.csv = subprocess.run(
            [symcan, "generate", "--seed", str(seed), "--messages", str(messages)],
            check=True, capture_output=True, text=True).stdout
        self.json = json.dumps(self.csv)
        rows = [line.split(",") for line in self.csv.splitlines() if line.startswith("msg,")]
        if len(rows) != messages:
            raise RuntimeError(f"generated {len(rows)} messages, asked for {messages}")
        # Priority order: a lower CAN id wins arbitration.
        self.by_priority = [r[1] for r in sorted(rows, key=lambda r: int(r[2]))]


class Stream:
    """Base: subclasses define `sizes` and `_next_request(k)`.

    A request is a dict of wire fields without `id` and `matrix_csv`, plus
    `matrix` (an index into the stream's matrices) and `key`: requests
    with the same key are the same question and must get the same answer
    (None when every request is distinct).
    """

    sizes = ()

    def __init__(self, symcan, seed):
        self.symcan = symcan
        self.seed = seed
        self.rng = Rng(seed)
        self.k = 0
        self._matrices = {}

    def matrix(self, i):
        if i not in self._matrices:
            self._matrices[i] = Matrix(self.symcan, mix(self.seed * 1000003 + i) % (1 << 62),
                                       self.sizes[i])
        return self._matrices[i]

    def next(self):
        """The next (request dict, wire line bytes); ids count from 0."""
        req = self._next_request(self.k)
        fields = [f'"id":"{self.k}"', f'"kind":"{req["kind"]}"',
                  '"matrix_csv":' + self.matrix(req["matrix"]).json]
        for name, value in req.items():
            if name not in ("kind", "matrix", "key"):
                fields.append(f'"{name}":' + json.dumps(value))
        self.k += 1
        return req, ("{" + ",".join(fields) + "}\n").encode()


class Interactive(Stream):
    """One caller asking questions about a few matrices it keeps open.

    Mix: 50 % analyze (jitter absent, 0.1, 0.2, 0.3), 25 % explain --json
    (messages at priority ranks 1/4, 1/2, 3/4), 25 % prob (100 or 10000
    fault ppm). 4 matrices x 9 questions = 36 distinct requests, which fit
    the server's matrix memo and RTA cache after one pass.
    """

    sizes = (32, 61, 90, 120)

    def __init__(self, symcan, seed):
        super().__init__(symcan, seed)
        self.templates = []
        for m, size in enumerate(self.sizes):
            for jitter in (None, 0.1, 0.2, 0.3):
                req = {"kind": "analyze", "matrix": m}
                if jitter is not None:
                    req["jitter"] = jitter
                self.templates.append(req)
            for rank in (size // 4, size // 2, 3 * size // 4):
                self.templates.append({"kind": "explain", "matrix": m,
                                       "message": self.matrix(m).by_priority[rank],
                                       "json": True})
            for ppm in (100, 10000):
                self.templates.append({"kind": "prob", "matrix": m, "fault_ppm": ppm})
        for key, req in enumerate(self.templates):
            req["key"] = key
        self.by_kind = {kind: [t for t in self.templates if t["kind"] == kind]
                        for kind in ("analyze", "explain", "prob")}

    def warmup_count(self):
        return 4 * len(self.templates)

    def _next_request(self, k):
        if k < len(self.templates):  # one of each first, to fill both caches
            return self.templates[k]
        u = self.rng.uniform()
        kind = "analyze" if u < 0.5 else "explain" if u < 0.75 else "prob"
        pool = self.by_kind[kind]
        return pool[self.rng.below(len(pool))]


class BulkVariants(Stream):
    """A CI script re-analysing every matrix of a variant set.

    160 matrices of 32 to 200 messages (evenly spaced sizes) are visited
    in one seeded order, cycle after cycle. Each cycle assumes a new
    jitter fraction for every message (override_known), so every request
    is a distinct (matrix, jitter) variant: the 64-entry matrix memo and
    the RTA cache miss, and once the cache is full every insert evicts.
    """

    count = 160
    sizes = tuple(32 + (168 * i) // 159 for i in range(160))

    def __init__(self, symcan, seed):
        super().__init__(symcan, seed)
        order = list(range(self.count))
        for i in range(self.count - 1, 0, -1):  # Fisher-Yates
            j = self.rng.below(i + 1)
            order[i], order[j] = order[j], order[i]
        self.order = order
        self.jitters = {}

    def warmup_count(self):
        return 4 * self.count

    def _jitter(self, cycle):
        if cycle not in self.jitters:
            j = round(0.05 + 0.30 * (((cycle + 1) * GOLDEN) % 1.0), 6)
            if j in self.jitters.values():
                raise RuntimeError("bulk_variants: repeated jitter fraction")
            self.jitters[cycle] = j
        return self.jitters[cycle]

    def _next_request(self, k):
        return {"kind": "analyze", "matrix": self.order[k % self.count],
                "jitter": self._jitter(k // self.count), "override_known": True, "key": None}


class DesignSession(Stream):
    """An engineer's design loop over a few matrices.

    Every block of 8 requests holds, in seeded order, 2 optimize (GA,
    6 generations of 12, seeded), 4 validate (1 s simulated; errors none,
    sporadic or burst; seeded) and 2 prob (fault ppm log-uniform in
    [1, 10^4]).
    """

    sizes = (32, 43, 54, 64)
    block = ("optimize", "optimize", "validate", "validate", "validate", "validate",
             "prob", "prob")

    def __init__(self, symcan, seed):
        super().__init__(symcan, seed)
        self.pending = []

    def warmup_count(self):
        return 16

    def _next_request(self, k):
        if not self.pending:
            kinds = list(self.block)
            for i in range(len(kinds) - 1, 0, -1):
                j = self.rng.below(i + 1)
                kinds[i], kinds[j] = kinds[j], kinds[i]
            self.pending = kinds
        kind = self.pending.pop()
        req = {"kind": kind, "matrix": self.rng.below(len(self.sizes)), "key": None}
        if kind == "optimize":
            req.update(seed=1 + self.rng.below(1 << 20), generations=6, population=12)
        elif kind == "validate":
            req.update(millis=1000, seed=1 + self.rng.below(1 << 20),
                       errors=("none", "sporadic", "burst")[self.rng.below(3)])
        else:
            req.update(fault_ppm=max(1, round(10 ** (4 * self.rng.uniform()))))
        return req


WORKLOADS = {
    "interactive": Interactive,
    "bulk_variants": BulkVariants,
    "design_session": DesignSession,
}


def cli_args(req, csv_path):
    """The one-shot `symcan` invocation that must print `output` byte for byte."""
    kind = req["kind"]
    if kind in ("analyze", "prob"):
        args = ["analyze", csv_path]
        if "jitter" in req:
            args += ["--jitter", repr(req["jitter"])]
            if req.get("override_known"):
                args.append("--override-known")
        if kind == "prob":
            args += ["--prob", "--fault-ppm", str(req["fault_ppm"]), "--jobs", "1"]
        return args
    if kind == "explain":
        return ["explain", csv_path, req["message"], "--json"]
    if kind == "validate":
        return ["validate", csv_path, "--millis", str(req["millis"]), "--seed", str(req["seed"]),
                "--errors", req["errors"]]
    if kind == "optimize":
        return ["optimize", csv_path, "--seed", str(req["seed"]), "--generations",
                str(req["generations"]), "--population", str(req["population"]), "--jobs", "1"]
    raise ValueError(kind)
