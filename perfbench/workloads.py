"""Workload job lists and the seeded spec generator.

A job is one ``nilpoisson`` command line.  Each workload is a fixed list
of jobs; the seed shuffles the order of the fixed lists and, for
``random-2step``, chooses the spec files.  Nothing here imports
``nilpoisson``: the program sees only the generated argv and spec files.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

DEFAULT_SEED = 0

# Size of the random 2-step specs: on a 2-core Xeon VM, n = 5 at full
# degree 10 costs about 2 s per spec; n = 6 at full degree 12 costs about
# 30 s, too long to repeat within one run.
RANDOM_N = 5
RANDOM_SPECS_PER_RUN = 3


@dataclass(frozen=True)
class Job:
    key: str                       # argv with spec files written by base name
    argv: Tuple[str, ...]
    expect: int = 0                # expected exit code
    json: bool = False             # stdout is a JSON payload to check
    dim_l: Optional[int] = None    # dim L of the target, for the Euler checks
    save_stdout: Optional[str] = None  # write stdout to this file after the job


def _dim_l(name: str) -> int:
    """dim L = 2n of a catalog name, from the family formulas in the README."""
    family, _, params = name.partition(":")
    values = [int(v) for v in params.split(",")]
    complex_dim = {
        "torus": lambda n: n,
        "heisenberg-ext": lambda n: n + 1,
        "double-heisenberg": lambda m, n: m + n + 1,
        "p4n2": lambda n: 2 * n + 1,
        "w4n6": lambda n: 2 * n + 3,
    }[family](*values)
    return 2 * complex_dim


def random_two_step_spec(seed: int, index: int, n: int = RANDOM_N) -> str:
    """A random 2-step spec as JSON text; the same arguments give the same bytes.

    The last basis vector V is central and [Xbar_k, X_j] = E_kj V for a
    dense (n-1) x (n-1) matrix E with entries (a + b i)/d, |a|, |b| <= 3,
    (a, b) != 0, 1 <= d <= 4.  The Jacobi identity holds for any E when V
    is central, so every spec made here is valid.
    """
    rng = random.Random(f"random-2step:{seed}:{index}")
    constants = []
    for k in range(1, n):
        for j in range(1, n):
            a = b = 0
            while a == 0 and b == 0:
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            d = rng.randint(1, 4)
            constants.append({"k": k, "j": j, "m": n,
                              "re": str(Fraction(a, d)), "im": str(Fraction(b, d))})
    payload = {
        "name": f"random-2step:{seed}.{index}",
        "n": n,
        "labels": [f"T{j}" for j in range(1, n)] + ["V"],
        "constants": constants,
    }
    return json.dumps(payload, indent=2) + "\n"


# A 2-dimensional spec that breaks Jacobi: [X1bar, X1] = X2, [X2bar, X2] = X1.
NON_JACOBI_SPEC = json.dumps({
    "name": "nonjacobi", "n": 2, "labels": ["X1", "X2"],
    "constants": [{"k": 1, "j": 1, "m": 2, "re": "1", "im": "0"},
                  {"k": 2, "j": 2, "m": 1, "re": "1", "im": "0"}],
}, indent=2) + "\n"


class _JobList:
    """Collects job groups; a group keeps its order when groups are shuffled."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.files: Dict[str, str] = {}
        self.groups: List[List[Job]] = []

    def path(self, filename: str) -> str:
        return os.path.join(self.workdir, filename)

    def job(self, *argv: str, expect: int = 0, dim_l: Optional[int] = None,
            save_stdout: Optional[str] = None) -> Job:
        key = " ".join(os.path.basename(a) if a.startswith(self.workdir) else a for a in argv)
        is_json = "--json" in argv or argv[:2] == ("catalog", "emit")
        return Job(key=key, argv=tuple(argv), expect=expect, json=is_json,
                   dim_l=dim_l, save_stdout=save_stdout)

    def group(self, *jobs: Job) -> None:
        self.groups.append(list(jobs))


def _catalog_analyze(b: _JobList, seed: int) -> None:
    # The ROADMAP ladder at sizes that repeat within one run: the same
    # algebras, with the degree cap lowered from 6.
    for target, poisson, cap in (("w4n6:3", "V^T1", 5), ("p4n2:3", "V^T2", 4),
                                 ("double-heisenberg:3,3", "V^T1", 4),
                                 ("w4n6:3", "V^T2", 4)):
        b.group(b.job("analyze", target, "--poisson", poisson, "--max-degree", str(cap),
                      "--json", dim_l=_dim_l(target)))


def _random_2step(b: _JobList, seed: int) -> None:
    for index in range(RANDOM_SPECS_PER_RUN):
        filename = f"random-2step-{seed}-{index}.json"
        b.files[filename] = random_two_step_spec(seed, index)
        b.group(b.job("analyze", b.path(filename), "--json", "--max-degree", str(2 * RANDOM_N),
                      "--poisson", "V^T1", dim_l=2 * RANDOM_N))


def _deform_sweep(b: _JobList, seed: int) -> None:
    for target, cap in (("w4n6:3", 5), ("w4n6:2", None), ("p4n2:2", None)):
        extra = ("--max-degree", str(cap)) if cap is not None else ()
        b.group(b.job("deform", target, "--poisson", "V^T2", "--omega", "rho_bar^w1_bar",
                      *extra, "--json", dim_l=_dim_l(target)))


# (catalog name, Poisson bivector, obstruction T or None, deform omega or None)
_SMALL_FAMILIES = (
    ("torus:2", "X1^X2", None, None),
    ("torus:3", "X1^X3", None, None),
    ("heisenberg-ext:1", "V^T1", "T1", None),
    ("heisenberg-ext:2", "V^T1", "T1", None),
    ("heisenberg-ext:3", "V^T2", "T2", None),
    ("double-heisenberg:1,1", "V^T1", "S1", None),
    ("double-heisenberg:1,2", "V^S1", "T1", None),
    ("p4n2:1", "V^T2", "T1", "rho_bar^w1_bar"),
    ("w4n6:0", "V^T2", "T1", "rho_bar^w1_bar"),
)


def _small_batch(b: _JobList, seed: int) -> None:
    b.group(b.job("catalog", "list"))
    for name, poisson, t, omega in _SMALL_FAMILIES:
        dim_l = _dim_l(name)
        spec_file = b.path(name.replace(":", "-").replace(",", "-") + ".json")
        b.group(b.job("catalog", "emit", name, save_stdout=spec_file),
                b.job("validate", spec_file),
                b.job("analyze", spec_file, "--poisson", poisson, "--json", dim_l=dim_l))
        b.group(b.job("validate", name))
        b.group(b.job("analyze", name, "--poisson", poisson, "--json", dim_l=dim_l))
        b.group(b.job("analyze", name, "--poisson", poisson))
        b.group(b.job("analyze", name, "--json", dim_l=dim_l))
        if t is not None:
            b.group(b.job("obstruction", name, "--t", t, "--json"))
            b.group(b.job("obstruction", name, "--t", t))
        if omega is not None:
            b.group(b.job("deform", name, "--poisson", poisson, "--omega", omega,
                          "--max-degree", str(dim_l), "--json", dim_l=dim_l))
            b.group(b.job("deform", name, "--poisson", poisson, "--omega", omega))
    # Deliberate input errors: each must exit 1.
    b.files["nonjacobi.json"] = NON_JACOBI_SPEC
    for argv in (("analyze", "w4n6:0", "--poisson", "T1^T2"),        # not holomorphic
                 ("analyze", "w4n6:0", "--poisson", "w1_bar"),       # wrong bidegree
                 ("validate", b.path("nonjacobi.json")),             # Jacobi fails
                 ("analyze", "w4n6:0", "--poisson", "V^Q9"),         # unknown label
                 ("deform", "w4n6:0", "--poisson", "V^T2", "--omega", "w1_bar"),  # not (0,2)
                 ("analyze", "w4n6:-1", "--json"),                   # bad catalog parameter
                 ("validate", b.path("missing.json"))):              # no such file
        b.group(b.job(*argv, expect=1))


WORKLOADS = {
    "catalog-analyze": _catalog_analyze,
    "random-2step": _random_2step,
    "deform-sweep": _deform_sweep,
    "small-batch": _small_batch,
}


def build(workload: str, seed: int, workdir: str) -> Tuple[Dict[str, str], List[Job]]:
    """Spec files (base name -> text) and the ordered job list of one run."""
    b = _JobList(workdir)
    WORKLOADS[workload](b, seed)
    random.Random(seed).shuffle(b.groups)
    return b.files, [job for group in b.groups for job in group]


def write_files(files: Dict[str, str], workdir: str) -> None:
    os.makedirs(workdir, exist_ok=True)
    for filename, text in files.items():
        with open(os.path.join(workdir, filename), "w") as handle:
            handle.write(text)
