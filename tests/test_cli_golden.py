"""Byte-identity of the CLI subcommands against recorded digests.

``check``, ``triangle`` and ``separation`` (at ``--levels 0.5``) run on
every model kind, ``repr`` on six of them; each output file's sha256,
the exit code and the printed lines of stdout and stderr (with the
output directory masked) must match ``GOLDEN``.  The ``check``,
``triangle`` and ``separation`` digests were recorded from the scalar
audit code that preceded the batched ``keys``/``gaps`` checks (commit
4bbb492); the ``repr`` digests and every ``stderr`` digest from the
plateau-edge loop that preceded the shared ``engine._bisect`` (commit
118c7b3), except ``repr.da``, re-recorded when the exact per-cell value
solver replaced disappointment aversion's value bisection (one ``u.csv``
cell moved by 2.2e-11; every other file and record held), and
``triangle.{wu,da,kernel,cyclic}``, re-recorded when the tracer began to
list a point found by both scanline families once.  ``repr.jump`` gained
one digest, for the ``error.json`` record an exit 3 now writes; its other
digests held.  ``separation.quadratic@0.8`` runs the quadratic oracle at
``--levels 0.8``, where the simplex separator exists and the
cross-polytope programs are infeasible together.  ``separation.quadratic``,
``separation.quadratic@0.8`` and ``separation.jump`` were re-recorded when
an infeasible program with one free coefficient began to raise a Farkas
certificate in place of HiGHS's status: each level's ``infeasible``
message now names the samples whose bounds exclude each other, and the
level carries a ``certificate``; exit codes, stdout and stderr held.
``separation.wu4`` and ``separation.quadratic4`` run ``separation`` on
the four-outcome models of ``MODELS4``.  Recorded while HiGHS solved
every program with two or more free coefficients, both were re-recorded
once when the package's own exact solver replaced it: on the weighted
utility, programs whose least L1 norm several functionals share now get
the lexicographically least (HiGHS put up to 0.54 on another
coefficient), so ``separation.json`` moved; on the quadratic oracle the
level's ``infeasible`` message names the two samples of its new Farkas
``certificate`` in place of HiGHS's status.  Exit codes, stdout and
stderr held.
``separation.quadratic@0.8`` was re-recorded once more when a Farkas
certificate's ``residual`` and ``gap`` began to be summed with
``math.fsum``: its residual went from 5.492075603213178e-18 to 0.0, and
nothing else moved.
``repr.{eu,wu,da,kernel}`` and ``separation.{eu,wu,da,kernel,wu4}`` were
re-recorded once when value models' level and mixing solves began to
step by safeguarded false position on their gaps (``engine._bisect``):
every solved level and weight moved by less than ``tol_t``, the largest
moves being 3.6e-11 in ``U.csv``, 5.5e-10 in ``u.csv`` and 3.7e-11 in
``separation.json``; ``separation.wu4`` also gained one audit sample, a
crossing point now 1.25e-11 from the grid lottery it used to equal.  Exit
codes, stdout and stderr held, and so did every oracle record.
``check.quadratic@grid9`` pins the 3,792-witness ``axioms.json``
the benchmark writes; it was recorded at commit 4a229aa, while the file
still went through ``json.dump``.  So any change
to a printed number shows up here.  To re-record after an intended output
change, run ``PYTHONPATH=src python tests/test_cli_golden.py`` and paste
its output over ``GOLDEN``.
"""

import hashlib
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

from betweenu.cli import main

sys.path.insert(0, os.path.dirname(__file__))
from conftest import DA_U, EU_U, KERNEL_PHI, KERNEL_T_GRID, WU_U, WU_W  # noqa: E402

MODELS = {
    "eu": {"kind": "expected_utility", "u": EU_U},
    "wu": {"kind": "weighted_utility", "u": WU_U, "w": WU_W},
    "da": {"kind": "disappointment_aversion", "u": DA_U, "beta": 1.0},
    "kernel": {"kind": "implicit_kernel", "t_grid": KERNEL_T_GRID, "phi": KERNEL_PHI},
    "cyclic": {"kind": "cyclic_oracle"},
    "quadratic": {"kind": "quadratic"},
    "jump": {"kind": "jump"},
}

#: Four-outcome models, audited by ``separation`` alone: the weighted
#: utility of the benchmark's ``wu4`` job, and a quadratic oracle whose
#: matrix leaves some levels without a separating functional.
MODELS4 = {
    "wu4": {"kind": "weighted_utility", "u": [0.0, 0.3, 0.7, 1.0], "w": [1.0, 2.0, 0.5, 1.5]},
    "quadratic4": {
        "kind": "quadratic",
        "matrix": [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                   [0.0, 0.0, 0.0, 0.5]],
    },
}

#: A four-outcome quadratic oracle audited by ``check`` alone.  Its matrix
#: is not dyadic, so its values round: under OpenBLAS, ``p @ B @ p`` gives
#: 12 of the 84 grid values up to two ulps off the oracle's fixed-order
#: elementwise sum.  The record was made from ``p @ B @ p`` values, so it
#: shows that rounding moves no verdict and no witness byte.
CHECK_MODELS4 = {
    "quadratic4-decimal": {
        "kind": "quadratic",
        "matrix": [[0.0, 0.7, 0.1, 0.0], [0.7, 0.0, 0.0, 0.3], [0.1, 0.0, 0.9, 0.0],
                   [0.0, 0.3, 0.0, 0.45]],
    },
}

#: Grid resolution per subcommand: grid 6 holds the cyclic oracle's
#: planted triple; the separation audit's cost barely depends on it.
GRIDS = {"check": 6, "triangle": 6, "separation": 4}

#: ``repr``'s fixed-point search scans 1,000 levels per grid lottery (one
#: comparison each) and bisects two plateau edges on full ``u(x, t)``
#: solves, so its grids are chosen per model: DA grid 1 holds one interior
#: plateau vertex, kernel grid 3 the full-support lottery, and jump exits
#: 3 (``MultipleFixedPoints``).
REPR_GRIDS = {"eu": 6, "wu": 6, "da": 1, "kernel": 3, "cyclic": 2, "jump": 3}

#: Jobs as (subcommand, model, grid, levels), each recorded under its name.
JOBS = {
    **{f"{cmd}.{model}": (cmd, model, GRIDS[cmd], "0.5") for cmd in GRIDS for model in MODELS},
    **{f"repr.{model}": ("repr", model, res, "0.5") for model, res in REPR_GRIDS.items()},
    "separation.quadratic@0.8": ("separation", "quadratic", GRIDS["separation"], "0.8"),
    "check.quadratic@grid9": ("check", "quadratic", 9, "0.5"),
    "check.quadratic4-decimal": ("check", "quadratic4-decimal", GRIDS["check"], "0.5"),
    **{f"separation.{model}": ("separation", model, GRIDS["separation"], "0.5") for model in MODELS4},
}


def run_job(root: str, cmd: str, model: str, res: int, levels: str) -> dict:
    spec = os.path.join(root, f"{model}.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({**MODELS, **MODELS4, **CHECK_MODELS4}[model], fh)
    out = os.path.join(root, f"{cmd}.{model}@{levels}")
    argv = [cmd, "--model", spec, "--grid", str(res), "--levels", levels, "--out", out]
    printed, errors = StringIO(), StringIO()
    with redirect_stdout(printed), redirect_stderr(errors):
        code = main(argv)
    files = {}
    if os.path.isdir(out):
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = hashlib.sha256(fh.read()).hexdigest()
    digest = {
        name: hashlib.sha256(stream.getvalue().replace(out, "OUT").encode()).hexdigest()
        for name, stream in (("stdout", printed), ("stderr", errors))
    }
    return {"exit": code, "files": files, **digest}


GOLDEN = {
    "check.cyclic": {
        "exit": 1,
        "files": {
            "axioms.json": "b95c3efbaff24d3c790de9e692881a1e13e7325fd32291960d56c0dabf458f17"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "6077a1517286daeb01c77b246fe076c71b4796abcacbbc9eb01acbd886c77d4c"
    },
    "check.da": {
        "exit": 0,
        "files": {
            "axioms.json": "92f85cb9629b1032d5969d71db06b6232bbea197a7ff8b3d75946383d42b99a2"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "4350877a439d449929aa4ec1c3fc4dba6e766a4ff1fc212fe2cd38541c5d20ad"
    },
    "check.eu": {
        "exit": 0,
        "files": {
            "axioms.json": "36a8cd3deef804dc52365dfd0564bbea7f0d72850167b1ed5b2b2fb300adbbca"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "4350877a439d449929aa4ec1c3fc4dba6e766a4ff1fc212fe2cd38541c5d20ad"
    },
    "check.jump": {
        "exit": 1,
        "files": {
            "axioms.json": "feaa9042121611194a6abc0bf3394db7ae1030cd81f26ba6bfc8c14e01acc098"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "492b37907f5d95d6e2854af5536057b1cddad0857ad916efdd31b875d985eebc"
    },
    "check.kernel": {
        "exit": 0,
        "files": {
            "axioms.json": "dd47824060ae4077ed65cfd36fe80f48c2603a003e5446624fe5ea3f8c11ed30"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "4350877a439d449929aa4ec1c3fc4dba6e766a4ff1fc212fe2cd38541c5d20ad"
    },
    "check.quadratic": {
        "exit": 1,
        "files": {
            "axioms.json": "0aa46ca24f688382901c14203a7a7c1a674d46e1daf972d7cd8c6103d54720ae"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "46ed170628f5dc8baa1f62cd6c4df807d11cfa759df57d7a18cb3a002e12b2cb"
    },
    "check.quadratic@grid9": {
        "exit": 1,
        "files": {
            "axioms.json": "d9af26def2ad3ca4342c8393d3645f679539197a0a24ddeff5be4aa84dca72bb"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "46ed170628f5dc8baa1f62cd6c4df807d11cfa759df57d7a18cb3a002e12b2cb"
    },
    "check.quadratic4-decimal": {
        "exit": 1,
        "files": {
            "axioms.json": "01b19b347eb4657c2e0ee13911a58374a513e3a503355e438b7dc1a9757dfc85"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "46ed170628f5dc8baa1f62cd6c4df807d11cfa759df57d7a18cb3a002e12b2cb"
    },
    "check.wu": {
        "exit": 0,
        "files": {
            "axioms.json": "36a8cd3deef804dc52365dfd0564bbea7f0d72850167b1ed5b2b2fb300adbbca"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "4350877a439d449929aa4ec1c3fc4dba6e766a4ff1fc212fe2cd38541c5d20ad"
    },
    "repr.cyclic": {
        "exit": 0,
        "files": {
            "U.csv": "ea1bb80bb429b87bf7971d0ab88a927cfcfa531f35eeb0ecdcff15c3254ba5d2",
            "summary.json": "5a7ee493f33ac9fb5c92fe0f3f224195f33a9774e3b308f19bc1fdaad6296775",
            "u.csv": "47813b03d6426186d77aa11b473e71c88c83724f978492384f2597ea778c36f1"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "c94a67b07f4895554a9fb6054e83f24f8fcd64b2f1194225a293a2d4edf55d5b"
    },
    "repr.da": {
        "exit": 0,
        "files": {
            "U.csv": "087cb9e8f9747af4aaa9f9e9f1cab8c60b2aec3ef7d2f7f20b05641ca5f19f8c",
            "summary.json": "cf77dfd728fd7d6c5db12857818179e02d98aa1de09d6f128855e427ff23b8fa",
            "u.csv": "50d60b90f61595c9b60356a8abce21953986c22be0ac8de80d291a82d66af31a"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "c94a67b07f4895554a9fb6054e83f24f8fcd64b2f1194225a293a2d4edf55d5b"
    },
    "repr.eu": {
        "exit": 0,
        "files": {
            "U.csv": "965f5013aebd76a0d68414e5619b5f6bd2c7e8dedf61f80e8a7eb00a19c6e06c",
            "summary.json": "604aa917d9ac45d767bd65f59c72caa3bc8042a63f9be9eaafc4c8377a1f6962",
            "u.csv": "9965159a04514622f9b81ae84d4ed5e2fc1c8b7761e3c73a0f1d107ad26acd19"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "c94a67b07f4895554a9fb6054e83f24f8fcd64b2f1194225a293a2d4edf55d5b"
    },
    "repr.jump": {
        "exit": 3,
        "files": {
            "U.csv": "584cd17a085564db6a43599a135b7b1add63ce38e94f4fb82931e3187d0c4c53",
            "error.json": "cd6bb64e569eb699ffe6d0cfc41dd14900cba69b648118cdceb9f26e96df7567",
            "u.csv": "a1b34b2cdf9dad9d4cdd4b591511a1a67d863b7f8939f416ca4ca879a4749bc3"
        },
        "stderr": "d579f5836fb231ceba63e33267767b2918d639a45790ff67147b52bd758fafa4",
        "stdout": "4e7269f38cb14600f159471bfad32fcec99a025a18cd211c0f498e1d82927313"
    },
    "repr.kernel": {
        "exit": 0,
        "files": {
            "U.csv": "6b3dab653945ea05016ca42a97fcfb71a488c538ad2adaa4b7037ed6095c5309",
            "summary.json": "5904ebce50ecfecc717c742116605f3ba0793e0b0ae859b449c0fa8020ca9c5e",
            "u.csv": "34ce5474eed8f886a9ceb34e5b481b897c8eb5284594547ada7b4207cab780f4"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "c94a67b07f4895554a9fb6054e83f24f8fcd64b2f1194225a293a2d4edf55d5b"
    },
    "repr.wu": {
        "exit": 0,
        "files": {
            "U.csv": "a234f7267cfa347bd91f66a04725289281c069af8e92ae6ff866c0f1be1c8589",
            "summary.json": "601d1c9b975c1104f46ec8cb82b0fecbdd1584b89fa3457c91f5e4a0da5bb29b",
            "u.csv": "2f4173c60636936e1be43df505654f89b0713a9161b44acd27914b20421cc480"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "c94a67b07f4895554a9fb6054e83f24f8fcd64b2f1194225a293a2d4edf55d5b"
    },
    "separation.cyclic": {
        "exit": 0,
        "files": {
            "separation.json": "893217f4e0bed666ec8f528a6e9eb72b80674199eaf777667edfda018940de82"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "a5b09a89401c0852b966652246dce81fe66e070f7ba15016171e5b7cc6adb76f"
    },
    "separation.da": {
        "exit": 0,
        "files": {
            "separation.json": "7dd4279f1d2e3a1582db7ef15663c71f295287ff419ea70ed1922c1b829a3898"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "a5b09a89401c0852b966652246dce81fe66e070f7ba15016171e5b7cc6adb76f"
    },
    "separation.eu": {
        "exit": 0,
        "files": {
            "separation.json": "bedb5e7cd3985f6b87ecc3ab0ad2edf4f9b3363d790c6877207ba96aa6521a46"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "a5b09a89401c0852b966652246dce81fe66e070f7ba15016171e5b7cc6adb76f"
    },
    "separation.jump": {
        "exit": 1,
        "files": {
            "separation.json": "c37b66040fb142920a2dab47151b71f11b0e9ccb83f5a63d295cc21017dd8f90"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "9de753697dd1a97e1b5e688b347f652858d472e33c21bd0c4ef1ad8ed4c92522"
    },
    "separation.kernel": {
        "exit": 0,
        "files": {
            "separation.json": "af94764eb071a6abb41c6f71ec0d38c7ef4b15c41712b32993235f04e47237cb"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "a5b09a89401c0852b966652246dce81fe66e070f7ba15016171e5b7cc6adb76f"
    },
    "separation.quadratic": {
        "exit": 1,
        "files": {
            "separation.json": "0e0c206c1984c90397da8a0c63ae429442ce0fc5929454c00c5ec8b605047229"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "9de753697dd1a97e1b5e688b347f652858d472e33c21bd0c4ef1ad8ed4c92522"
    },
    "separation.quadratic4": {
        "exit": 1,
        "files": {
            "separation.json": "d16f58f26dddfeccf4fb4912a9b9b0b94c6f39112f605696983e083e0eab4674"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "9de753697dd1a97e1b5e688b347f652858d472e33c21bd0c4ef1ad8ed4c92522"
    },
    "separation.quadratic@0.8": {
        "exit": 1,
        "files": {
            "separation.json": "b176b3ecf8cb967a09498ab4af218efee3eb39d6b6eb5099eb63013da488d887"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "9de753697dd1a97e1b5e688b347f652858d472e33c21bd0c4ef1ad8ed4c92522"
    },
    "separation.wu": {
        "exit": 0,
        "files": {
            "separation.json": "ae4f70ee2951e6c1d50dcc8e596f237714eea6e83bd4f45488ec45fa98356de9"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "a5b09a89401c0852b966652246dce81fe66e070f7ba15016171e5b7cc6adb76f"
    },
    "separation.wu4": {
        "exit": 0,
        "files": {
            "separation.json": "814e1b6d286e2ab886241ee3cdd23628e76a7d7d1ff915befc0c67fa214f24ce"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "a5b09a89401c0852b966652246dce81fe66e070f7ba15016171e5b7cc6adb76f"
    },
    "triangle.cyclic": {
        "exit": 0,
        "files": {
            "curves.csv": "84483315732716c61c66b59b202300c6a429404514f30cc17ad2c6c4f6affa6f",
            "triangle.svg": "b918a7ecc00f7a90bc3d8f1403bb43b3385bcfe278a25dc3af855ba5066b7b63"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "b8369c275f7ffd1ee62950ca942dc95dc04da463600f41d341de65badfb92a88"
    },
    "triangle.da": {
        "exit": 0,
        "files": {
            "curves.csv": "4462df1660866b92719ee3ccf7eebf6fac44ca3014a8ea864f5d972f5bd4e0f1",
            "triangle.svg": "fc6a7dc18b0f54aae6d07e4fcd1b8dfd2be5de46c539ff450e85dc05a6bdd099"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "ad2d3aef78f55542e98cfb9a497fc82c253594892612871b9b31bccfd3544edf"
    },
    "triangle.eu": {
        "exit": 0,
        "files": {
            "curves.csv": "764420af5dbf2c5ab2edb5304907242061f4a5ed24045779c304bdd4e8522776",
            "triangle.svg": "4db7b4efe9b73043bb14de5f06442df293c94c62599640515bdff628cd124bec"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "8122c9d1fbc2a1101bcdacce0085bb12ed4cc0890706a813bd2eaa8af49f5bc2"
    },
    "triangle.jump": {
        "exit": 2,
        "files": {},
        "stderr": "2c5265fe4cb654738216227b434f9168402aa36249c4cc524b6f07f820ba6616",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    },
    "triangle.kernel": {
        "exit": 0,
        "files": {
            "curves.csv": "bdc52caa72a0f1c97d776f5c17889cfa232a5f376cff48fdf6a66b5ed6cc8679",
            "triangle.svg": "b918a7ecc00f7a90bc3d8f1403bb43b3385bcfe278a25dc3af855ba5066b7b63"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "7540c570ee3a26ae5e27c0815e74599d9270ea320a81fca2b4f46a2b725d221e"
    },
    "triangle.quadratic": {
        "exit": 0,
        "files": {
            "curves.csv": "77544ca33048559f298e7cb6b1eb9d94550a5782785b2c2661d077ed125dccd3",
            "triangle.svg": "2308d619020bdc2f1b09bb25cbc5a07abb306e24086ca6622428d301a223f115"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "f0b36fc869704a991c6851ef774ae09ddcd0505bd91a92a2d2b708460dea1ee5"
    },
    "triangle.wu": {
        "exit": 0,
        "files": {
            "curves.csv": "bb6b2accc30ea29b8505c4966a6c4ff6d5183a25beadef6ad90279840827de63",
            "triangle.svg": "da2d7ca0d581660cea89451439b52895e01dfe3766221cfdfa06a43812064e9e"
        },
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "7e75d16eb61f82baff7880d46a87fbc8492d70d5122be3d3b8171a43eeaeb54a"
    }
}


@pytest.mark.parametrize("name", JOBS)
def test_outputs_match_recorded_digests(tmp_path, name):
    assert run_job(str(tmp_path), *JOBS[name]) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        records = {name: run_job(root, *job) for name, job in JOBS.items()}
    print("GOLDEN = " + json.dumps(records, indent=4, sort_keys=True))
