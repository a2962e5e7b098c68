"""Golden CLI output for every subcommand and mode at small n.

`golden_reports.json` holds, per case, the exit code, stdout and stderr of
`cli.main(argv)`.  Witness paths appear relative to the case's witness
directory (`<w>`), and every witness file body is stored next to the
report.  Cases named `forced-*` replace one check or layer in `drivers`
so that the counterexample and error paths run without a genuine
counterexample.  The text rendering's wall-clock line is masked.

Record the file again with `PYTHONPATH=src python tests/test_golden_reports.py`.
A report is a verdict on a conjecture, so a changed entry needs a reason
in CHANGES.md, not a silent re-record.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

from eqbounds import cli, drivers
from eqbounds.poly import Classification

DATA = Path(__file__).with_name("golden_reports.json")

SOLVE_FILES = {
    "lin.txt": "x1 = 1\nx1 + x1 = x2\nx2 + x3 = x3\n",
    "free.txt": "x1 = 1\nx1 + x2 = x3\n",
    "poly.txt": "x1 + x1 = x2\nx1 * x1 = x2\nx2 * x2 = x3\n",
    "bad.txt": "x1 + = x2\n",
}


def _exp(*args: str) -> list[str]:
    return [*args, "--json", "--witness-dir", "<w>"]


def _text(*args: str) -> list[str]:
    return [*args, "--witness-dir", "<w>"]


def _fail_pow2(_):
    return lambda x, n: False


def _odd_positive_dimensional(saturate):
    def patched(pool, rng):
        outcome = saturate(pool, rng)
        index = {c.equation: i for i, c in enumerate(pool.candidates)}
        if sum(index[eq] for eq in outcome.system.equations) % 2:
            return dataclasses.replace(
                outcome, classification=Classification.POSITIVE_DIMENSIONAL
            )
        return outcome

    return patched


# name -> (argv, patches); a patch is (drivers attribute, wrapper of the original)
CASES: dict[str, tuple[list[str], tuple]] = {
    "conjI": (_exp("conjI", "--n", "3", "--iters", "20", "--seed", "1"), ()),
    "conjI-threads2": (_exp("conjI", "--n", "4", "--iters", "12", "--seed", "2",
                            "--threads", "2"), ()),
    "conjI-iters0": (_exp("conjI", "--n", "3", "--iters", "0"), ()),
    "conjI-text": (_text("conjI", "--n", "3", "--iters", "5", "--seed", "7"), ()),
    "conj1": (_exp("conj1", "--n", "3", "--iters", "10", "--seed", "3"), ()),
    "conj1-strict": (_exp("conj1", "--n", "4", "--iters", "6", "--seed", "3",
                          "--strict-semantics"), ()),
    "conj2-random": (_exp("conj2", "--n", "3", "--iters", "20", "--seed", "4"), ()),
    "conj2-exhaustive": (_exp("conj2", "--n", "3", "--exhaustive"), ()),
    "conj2-range": (_exp("conj2", "--n", "4", "--exhaustive", "--range", "100..400"), ()),
    "conj2-range-threads2": (_exp("conj2", "--n", "4", "--exhaustive", "--range", "0..300",
                                  "--threads", "2"), ()),
    "conj3-random": (_exp("conj3", "--n", "3", "--iters", "15", "--seed", "5"), ()),
    "conj3-exhaustive": (_exp("conj3", "--n", "3", "--exhaustive"), ()),
    "conj3-range-threads2": (_exp("conj3", "--n", "4", "--exhaustive", "--range", "50..450",
                                  "--threads", "2"), ()),
    "conj3-range-empty": (_exp("conj3", "--n", "4", "--exhaustive", "--range", "10..10"), ()),
    "conj3-text": (_text("conj3", "--n", "3", "--exhaustive", "--range", "3..40"), ()),
    "conj4": (_exp("conj4", "--n", "3", "--iters", "20", "--seed", "6"), ()),
    "conj5-a": (_exp("conj5", "--variant", "a", "--n", "3", "--iters", "3", "--seed", "8"), ()),
    "conj5-b": (_exp("conj5", "--n", "3", "--iters", "5", "--seed", "1"), ()),
    "conj5-c": (_exp("conj5", "--variant", "c", "--n", "4", "--iters", "3", "--seed", "1"), ()),
    "conj5-d": (_exp("conj5", "--variant", "d", "--n", "3", "--iters", "4", "--seed", "1"), ()),
    "conj5-b-threads2": (_exp("conj5", "--variant", "b", "--n", "4", "--iters", "3",
                              "--seed", "2", "--threads", "2"), ()),
    "conjII": (_exp("conjII", "--n", "3", "--iters", "5", "--seed", "2"), ()),
    "obs1-default-exhaustive": (_exp("obs1", "--n", "2"), ()),
    "obs1-exhaustive-n1": (_exp("obs1", "--n", "1", "--exhaustive"), ()),
    "obs1-random": (_exp("obs1", "--n", "4", "--iters", "5", "--seed", "3"), ()),
    "obs1-exhaustive-n4": (_exp("obs1", "--n", "4", "--exhaustive"), ()),
    "obs2": (_exp("obs2", "--n", "2", "--iters", "5", "--seed", "1"), ()),
    "obs2-n3": (_exp("obs2", "--n", "3", "--iters", "3", "--seed", "1"), ()),
    "solve-linear": (["solve", "<d>/lin.txt", "--json"], ()),
    "solve-linear-text": (["solve", "<d>/free.txt"], ()),
    "solve-poly": (["solve", "<d>/poly.txt", "--json"], ()),
    "solve-poly-text": (["solve", "<d>/poly.txt"], ()),
    "solve-parse-error": (["solve", "<d>/bad.txt"], ()),
    "solve-missing": (["solve", "<d>/missing.txt"], ()),
    "usage-no-command": ([], ()),
    "usage-bad-variant": (["conj5", "--variant", "z"], ()),
    "usage-range-without-exhaustive": (["conj3", "--range", "0..10"], ()),
    "usage-bad-range": (["conj2", "--exhaustive", "--range", "7"], ()),
    "usage-bad-int": (["conjI", "--n", "x"], ()),
    "usage-unknown-command": (["conj9"], ()),
    "help": (["-h"], ()),
    **{
        f"help-{command}": ([command, "-h"], ())
        for command in ("conjI", "conj1", "conj2", "conj3", "conj4", "conj5",
                        "conjII", "obs1", "obs2", "solve")
    },
    "forced-conjI": (_exp("conjI", "--n", "3", "--iters", "3", "--seed", "1"),
                     (("check_bound_pow2", _fail_pow2),)),
    "forced-conj1": (_exp("conj1", "--n", "3", "--iters", "3", "--seed", "1"),
                     (("check_bound_pow2", _fail_pow2),)),
    "forced-conj1-strict": (_exp("conj1", "--n", "3", "--iters", "3", "--seed", "1",
                                 "--strict-semantics"),
                            (("check_bound_pow2", _fail_pow2),)),
    "forced-conj2-random": (_exp("conj2", "--n", "3", "--iters", "4", "--seed", "1"),
                            (("_max_abs_maximal_minor_int", lambda f: lambda r: f(r) + 100),)),
    "forced-conj2-exhaustive": (_exp("conj2", "--n", "4", "--exhaustive", "--range", "0..5",
                                     "--threads", "2"),
                                (("_max_abs_maximal_minor_int", lambda f: lambda r: f(r) + 100),)),
    "forced-conj3-random": (_exp("conj3", "--n", "3", "--iters", "4", "--seed", "1"),
                            (("conj3_stats", lambda f: lambda x: (f(x)[0] + 100, f(x)[1])),)),
    "forced-conj3-exhaustive": (_exp("conj3", "--n", "3", "--exhaustive", "--range", "0..6",
                                     "--threads", "2"),
                                (("conj3_stats", lambda f: lambda x: (f(x)[0], f(x)[1] + 100)),)),
    "forced-conj4": (_exp("conj4", "--n", "3", "--iters", "3", "--seed", "1"),
                     (("conj4_check", lambda f: lambda x: (f(x)[0], False)),)),
    "forced-conj5-b": (_exp("conj5", "--n", "3", "--iters", "3", "--seed", "1"),
                       (("check_bound_double_exp", lambda f: lambda *a: False),)),
    "forced-conj5-d": (_exp("conj5", "--variant", "d", "--n", "3", "--iters", "3",
                            "--seed", "1"),
                       (("check_bound_double_exp", lambda f: lambda *a: False),)),
    "forced-conj5-a-maximal": (_exp("conj5", "--variant", "a", "--n", "3", "--iters", "3",
                                    "--seed", "8"),
                               (("is_maximal_consistent", lambda f: lambda s: (True, [])),)),
    "forced-conj5-positive-dimensional": (
        _exp("conj5", "--n", "3", "--iters", "6", "--seed", "1"),
        (("greedy_saturate", _odd_positive_dimensional),)),
    "forced-conj5-positive-dimensional-maximal": (
        _exp("conj5", "--variant", "d", "--n", "3", "--iters", "4", "--seed", "2"),
        (("greedy_saturate", _odd_positive_dimensional),
         ("is_maximal_consistent", lambda f: lambda s: (True, [])))),
    "forced-conjII": (_exp("conjII", "--n", "3", "--iters", "3", "--seed", "1"),
                      (("double_exp_bound", lambda f: lambda n, e: -1.0),)),
    "forced-conjII-positive-dimensional": (
        _exp("conjII", "--n", "3", "--iters", "6", "--seed", "3"),
        (("greedy_saturate", _odd_positive_dimensional),)),
    "forced-obs1-exhaustive": (_exp("obs1", "--n", "1"),
                               (("observation1_hat_search", lambda f: lambda s, x: None),)),
    "forced-obs1-random": (_exp("obs1", "--n", "4", "--iters", "2", "--seed", "1"),
                           (("observation1_hat_search", lambda f: lambda s, x: None),)),
    "forced-obs2": (_exp("obs2", "--n", "2", "--iters", "2", "--seed", "1"),
                    (("observation2_hat_search", lambda f: lambda s, x: None),)),
    "forced-obs2-positive-dimensional": (
        _exp("obs2", "--n", "3", "--iters", "6", "--seed", "4"),
        (("greedy_saturate", _odd_positive_dimensional),)),
}

_WALL_CLOCK = re.compile(r"wall clock: \d+\.\d+s")


def run_case(name: str, root: Path) -> dict:
    """Run one case in a fresh directory under `root`; paths come back masked."""
    argv, patches = CASES[name]
    work = root / name
    work.mkdir(parents=True)
    for file_name, body in SOLVE_FILES.items():
        (work / file_name).write_text(body)
    witness_dir = work / "w"
    args = [a.replace("<w>", str(witness_dir)).replace("<d>", str(work)) for a in argv]
    originals = [(attr, getattr(drivers, attr)) for attr, _ in patches]
    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps help and usage to the terminal width
    try:
        for attr, wrap in patches:
            setattr(drivers, attr, wrap(getattr(drivers, attr)))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(args)
            except SystemExit as exc:
                code = exc.code
    finally:
        for attr, original in originals:
            setattr(drivers, attr, original)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns

    def mask(text: str) -> str:
        text = text.replace(str(witness_dir), "<w>").replace(str(work), "<d>")
        return _WALL_CLOCK.sub("wall clock: <s>", text)

    witnesses = {}
    if witness_dir.is_dir():
        witnesses = {p.name: p.read_text() for p in sorted(witness_dir.iterdir())}
    return {"code": code, "stdout": mask(out.getvalue()), "stderr": mask(err.getvalue()),
            "witnesses": witnesses}


def _golden() -> dict:
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path):
    assert run_case(name, tmp_path) == _golden()[name]


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {name: run_case(name, Path(tmp)) for name in sorted(CASES)}
    DATA.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases to {DATA}", file=sys.stderr)
