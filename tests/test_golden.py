"""Byte identity of the reproduction CSVs against `tests/golden/`.

Each case of `golden.regenerate.CASES` is rerun and its CSV bodies are
compared with the committed ones: byte for byte where the numpy and scipy
versions and the machine match those recorded in `versions.json`, and
otherwise floats at a relative tolerance of 1e-10, with integers, status
strings and headers exact.  A change that moves output bits on purpose
reruns `python tests/golden/regenerate.py` and states the largest relative
change it prints.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import golden.regenerate as regenerate
from golden.regenerate import CASES, GOLDEN, differences, run_case, versions

RTOL = 1e-10


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bodies_match_the_golden_files(name, tmp_path):
    got = run_case(CASES[name], tmp_path)
    folder = GOLDEN / name
    want = {p.name: p.read_bytes() for p in folder.glob("*.csv")}
    assert sorted(got) == sorted(want)
    same_build = versions() == json.loads(
        (GOLDEN / "versions.json").read_text(encoding="utf-8"))
    for file_name, body in got.items():
        if same_build:
            assert body == want[file_name], f"{name}/{file_name} moved"
        else:
            largest, exact = differences(body, want[file_name])
            assert not exact and largest <= RTOL, (file_name, largest, exact)


def test_differences_compares_floats_relatively_and_the_rest_exactly():
    want = b"iter,value,status\n1,1.5,converged\n"
    assert differences(want, want) == (0.0, [])
    largest, exact = differences(b"iter,value,status\n1,1.5000000003,converged\n",
                                 want)
    assert exact == [] and largest == pytest.approx(2e-10, rel=1e-6)
    assert differences(b"iter,value,status\n2,1.5,converged\n", want)[1]
    assert differences(b"iter,value,status\n1,1.5,maxiter\n", want)[1]
    assert differences(b"iter,value,status\n1,nan,converged\n", want)[1]
    assert differences(b"iter,value\n1,1.5\n", want)[1]


def test_check_prints_the_changes_and_rewrites_nothing(tmp_path, monkeypatch,
                                                       capsys):
    # --check exits 1 when an exact cell moved, 0 when floats alone did,
    # and writes no file either way
    name = "sweep_splitting"
    shutil.copytree(GOLDEN / name, tmp_path / name)
    monkeypatch.setattr(regenerate, "GOLDEN", tmp_path)
    monkeypatch.setattr(regenerate, "CASES", {name: CASES[name]})
    path = tmp_path / name / "sweep.csv"
    header, first, *rest = path.read_text(
        encoding="utf-8").splitlines(keepends=True)
    l1, l2, iters, status = first.rstrip("\n").split(",")
    for row, code in ((["0.10000000000000003", l2, iters, status], 0),
                      ([l1, l2, str(int(iters) + 1), status], 1)):
        edited = "".join([header, ",".join(row) + "\n", *rest])
        path.write_text(edited, encoding="utf-8")
        assert regenerate.main(check=True) == code
        out = capsys.readouterr().out
        assert out.startswith(f"{name}/sweep.csv: ")
        assert ("exact cells differ" in out) == (code == 1)
        assert path.read_text(encoding="utf-8") == edited
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


def test_full_check_reads_the_full_folder(tmp_path, monkeypatch, capsys):
    # --full runs the cases of FULL against tests/golden/full/<case>/
    name = "sweep_splitting"
    shutil.copytree(GOLDEN / name, tmp_path / "full" / "small_sweep")
    monkeypatch.setattr(regenerate, "GOLDEN", tmp_path)
    monkeypatch.setattr(regenerate, "FULL", {"small_sweep": CASES[name]})
    monkeypatch.setattr(regenerate, "CASES", {})
    assert regenerate.main(check=True, full=True) == 0
    assert capsys.readouterr().out == (
        "small_sweep/sweep.csv: largest relative change 0, "
        "relative to its column 0\n")


def test_full_size_runs_match_their_golden_files():
    # `regenerate.py --full --check` as a script, with one BLAS thread as
    # the full-size files were written: no exact cell moves, no file is new
    # or gone, and no float cell moves by more than RTOL (about 12 s)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(GOLDEN / "regenerate.py"), "--full", "--check"],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    changes = re.findall(r"largest relative change (\S+),", proc.stdout)
    assert len(changes) == len(proc.stdout.splitlines()) > 0
    assert max(map(float, changes)) <= RTOL, proc.stdout
