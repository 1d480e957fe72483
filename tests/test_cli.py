import json
import pathlib

import pytest

from parahoric import (
    build_root_datum,
    certify,
    chi_char,
    extended_basis,
    from_parahoric,
    jantzen_report,
    parahoric_model,
    parse_facet_spec,
    unitary_report,
)
from parahoric import charring
from parahoric.charring import DiskCharacters, character_to_json
from parahoric.cli import main


def _type_dir(root, spec):
    """The directory in which the disk cache under ``root`` keeps ``spec``."""
    return pathlib.Path(DiskCharacters(build_root_datum(spec), str(root)).dir)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_rootsys_a2(capsys):
    code, envelope = run_json(capsys, ["rootsys", "--type", "A2"])
    assert code == 0
    out = envelope["outputs"]
    assert out["total_roots"] == 6
    assert out["components"][0]["ell"] == 3
    assert envelope["command"] == "rootsys"
    assert envelope["tool_version"]


def test_rootsys_g2_and_torus(capsys):
    code, envelope = run_json(capsys, ["rootsys", "--type", "G2"])
    assert envelope["outputs"]["total_roots"] == 12
    assert envelope["outputs"]["components"][0]["ell"] == 6
    code, envelope = run_json(capsys, ["rootsys", "--type", "A1+T1"])
    assert envelope["outputs"]["rank"] == 2
    assert envelope["outputs"]["total_roots"] == 2


def test_facets_rows(capsys):
    for name, count in [("A2", 7), ("A1", 3), ("C2", 7)]:
        code, envelope = run_json(capsys, ["facets", "--type", name])
        assert code == 0
        assert envelope["outputs"]["count"] == count
        assert len(envelope["outputs"]["facets"]) == count


def test_parahoric_reports(capsys):
    code, envelope = run_json(capsys, ["parahoric", "--type", "A1", "--theta", "0,1"])
    assert envelope["outputs"]["dim_R"] == 2
    code, envelope = run_json(capsys, ["parahoric", "--type", "A1", "--theta", "1"])
    assert envelope["outputs"]["dim_R"] == 0
    code, envelope = run_json(capsys, ["parahoric", "--type", "A2", "--theta", "0,2"])
    out = envelope["outputs"]
    assert out["dim_R"] == 4
    assert sorted(map(tuple, out["quotient_roots"])) == [(-1, 2), (1, -2)]


def test_levi_command(capsys):
    code, envelope = run_json(capsys, ["levi", "--type", "A1", "--theta", "0,1", "--p", "5"])
    cert = envelope["outputs"]["certificate"]
    assert code == 0
    assert cert["existence"] == "certified" and cert["conjugacy"] == "certified"
    code, envelope = run_json(capsys, ["levi", "--type", "A2", "--theta", "0,1,2", "--p", "2"])
    cert = envelope["outputs"]["certificate"]
    assert cert["existence"] == "certified"
    assert cert["rules"][0]["id"] == "T" and cert["rules"][0]["satisfied"]


def test_character_command(capsys):
    code, envelope = run_json(capsys, ["character", "--type", "C2", "--weight", "0,1"])
    out = envelope["outputs"]
    assert out["dim"] == 5 and out["weyl_dim"] == 5
    assert out["support"] == {"0,0": 1, "0,1": 1}


def test_jantzen_command(capsys):
    code, envelope = run_json(capsys, ["jantzen", "--type", "A2", "--weight", "5,0", "--p", "5"])
    assert code == 0
    out = envelope["outputs"]
    assert out == {
        "lambda": "5,0",
        "p": 5,
        "J": {"2,0": -1, "3,1": 1},
        "radical": "3,1",
        "chL_dim": 3,
        "provenance": "jantzen_resolved",
    }
    code, envelope = run_json(capsys, ["jantzen", "--type", "A2", "--weight", "1,0", "--p", "5"])
    assert envelope["outputs"]["provenance"] == "lowest_alcove"
    assert envelope["outputs"]["J"] == {}


def test_verify_sl3(capsys):
    for p in (3, 5, 7):
        code, envelope = run_json(capsys, ["verify-sl3", "--p", str(p)])
        assert code == 0
        assert envelope["outputs"]["passed"] is True
    assert envelope["outputs"]["dim_W"] == 45


def test_verify_unitary(capsys):
    code, envelope = run_json(capsys, ["verify-unitary", "--n", "2", "--p", "3"])
    assert code == 0
    assert envelope["outputs"]["conjugacy_by_group_points"] is True
    code, envelope = run_json(capsys, ["verify-unitary", "--n", "3", "--p", "3"])
    assert code == 0
    assert envelope["outputs"]["conjugacy_by_group_points"] is False
    code, envelope = run_json(capsys, ["verify-unitary", "--n", "4", "--p", "3"])
    assert envelope["outputs"]["dim_lambda2"] == 28


def test_json_roundtrip(capsys):
    code = main(["levi", "--type", "A2", "--theta", "0,2", "--p", "5", "--json"])
    raw = capsys.readouterr().out
    parsed = json.loads(raw)
    assert json.dumps(parsed, sort_keys=True) == raw.strip()


def test_verify_mismatch_exits_2(capsys, monkeypatch):
    # force a wrong report so the self-judging exit code can be observed
    import parahoric.cli as cli_mod

    real = cli_mod.unitary_report

    def broken(n, p):
        report = dict(real(n, p))
        report["dim_lambda2"] += 1
        return report

    monkeypatch.setattr(cli_mod, "unitary_report", broken)
    assert main(["verify-unitary", "--n", "2", "--p", "3"]) == 2
    capsys.readouterr()


def test_usage_errors(capsys):
    assert main(["nonsense"]) == 1
    capsys.readouterr()
    assert main(["levi", "--type", "A2", "--theta", "9", "--p", "5"]) == 1
    capsys.readouterr()
    assert main(["levi", "--type", "A2", "--theta", "0,1", "--p", "4"]) == 1
    capsys.readouterr()
    assert main(["rootsys", "--type", "Z9"]) == 1
    capsys.readouterr()
    assert main(["character", "--type", "A2", "--weight", "1"]) == 1
    capsys.readouterr()


def test_invariant_violation_exits_3(tmp_path, monkeypatch, capsys):
    # a wrong chi(3,0) that passes the cache checks (dim 10, keys dominant
    # below (3,0)) makes chi(3,0) - ch L(1,1) negative at p = 3
    monkeypatch.setenv("PARAHORIC_CACHE_DIR", str(tmp_path))
    target = _type_dir(tmp_path, "A2") / "3,0.json"
    target.parent.mkdir(parents=True)
    target.write_text('{"3,0": 1, "0,0": 7}')
    assert main(["jantzen", "--type", "A2", "--weight", "3,0", "--p", "3"]) == 3
    assert "internal error: chi((3, 0)) - ch L((1, 1)) is not a character" in capsys.readouterr().err
    assert main(["jantzen", "--type", "A2", "--weight", "3,0", "--p", "3", "--no-cache"]) == 0
    capsys.readouterr()


def test_cache_entries_are_checked_on_read(tmp_path, monkeypatch, capsys):
    # a wrong top multiplicity, non-dominant keys, non-integer
    # multiplicities, a non-object, a wrong dimension and a key not below lam
    # all count as misses, and the recomputed character replaces the file
    monkeypatch.setenv("PARAHORIC_CACHE_DIR", str(tmp_path))
    _type_dir(tmp_path, "A2").mkdir(parents=True)
    cases = [("1,0", bad, 3, {"1,0": 1})
             for bad in ['{"1,0": 2}', '{"-1,0": 1}', '{"1,0": "1"}', '{"1,0": true}', "[1]"]]
    cases += [("1,1", bad, 8, {"1,1": 1, "0,0": 2})
              for bad in ['{"1,1": 1, "0,0": 1}', '{"1,1": 1, "0,0": 2.0}']]
    cases.append(("2,0", '{"2,0": 1, "1,0": 1}', 6, {"2,0": 1, "0,1": 1}))
    cases.append(("2,2", '{"2,2": 1, "-3,3": 1, "0,3": 1, "1,1": 2, "0,0": 3}', 27,
                  {"2,2": 1, "3,0": 1, "0,3": 1, "1,1": 2, "0,0": 3}))
    for weight, bad, dimension, good in cases:
        target = _type_dir(tmp_path, "A2") / f"{weight}.json"
        target.write_text(bad)
        code, envelope = run_json(capsys, ["character", "--type", "A2", "--weight", weight])
        assert code == 0, bad
        assert envelope["outputs"]["dim"] == dimension, bad
        assert json.loads(target.read_text()) == good, bad


def test_cache_equivalence(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PARAHORIC_CACHE_DIR", str(tmp_path))
    code, first = run_json(capsys, ["character", "--type", "G2", "--weight", "1,1"])
    assert code == 0
    cached_files = list(tmp_path.rglob("*.json"))
    assert cached_files, "cache directory should be populated"
    code, second = run_json(capsys, ["character", "--type", "G2", "--weight", "1,1"])
    code, uncached = run_json(
        capsys, ["character", "--type", "G2", "--weight", "1,1", "--no-cache"]
    )
    assert first["outputs"] == second["outputs"] == uncached["outputs"]


def test_cache_ignores_corrupt_files(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PARAHORIC_CACHE_DIR", str(tmp_path))
    target = _type_dir(tmp_path, "A2") / "1,0.json"
    target.parent.mkdir(parents=True)
    target.write_text("{ not json")
    code, envelope = run_json(capsys, ["character", "--type", "A2", "--weight", "1,0"])
    assert code == 0
    assert envelope["outputs"]["dim"] == 3


def _files_under(root):
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def test_disk_cache_writers_of_one_entry_do_not_race(tmp_path, monkeypatch):
    # two stores (as in two processes) write chi(2,1); the second writes and
    # renames its file while the first is still inside json.dump
    a2 = build_root_datum("A2")
    first, second = DiskCharacters(a2, str(tmp_path)), DiskCharacters(a2, str(tmp_path))
    mult = chi_char(a2, (2, 1)).mult
    real_dump = json.dump
    interleaved = []

    def dump_after_second_writer(obj, fh):
        if not interleaved:
            interleaved.append(True)
            second[(2, 1)] = mult
        real_dump(obj, fh)

    monkeypatch.setattr(json, "dump", dump_after_second_writer)
    first[(2, 1)] = mult
    assert interleaved
    assert DiskCharacters(a2, str(tmp_path)).get((2, 1)) == mult
    entry = _type_dir(tmp_path, "A2") / "2,1.json"
    assert _files_under(tmp_path) == [entry.relative_to(tmp_path).as_posix()]


def test_disk_cache_entries_are_keyed_by_version_and_datum(tmp_path, monkeypatch):
    a2 = build_root_datum("A2")
    mult = chi_char(a2, (1, 0)).mult
    DiskCharacters(a2, str(tmp_path))[(1, 0)] = mult
    assert DiskCharacters(build_root_datum("A2"), str(tmp_path)).get((1, 0)) == mult
    # the same type name over another Cartan matrix has another fingerprint
    other = build_root_datum("A2")
    other.cartan = ((2, -1), (-2, 2))
    assert DiskCharacters(other, str(tmp_path)).dir != DiskCharacters(a2, str(tmp_path)).dir
    assert DiskCharacters(other, str(tmp_path)).get((1, 0)) is None
    # another release reads nothing this one wrote
    with monkeypatch.context() as patch:
        patch.setattr(charring, "__version__", "0.0.0-other")
        assert DiskCharacters(a2, str(tmp_path)).get((1, 0)) is None
    # an entry in the flat <root>/<type>/ layout of earlier releases is a miss
    legacy = tmp_path / "legacy"
    (legacy / "A2").mkdir(parents=True)
    (legacy / "A2" / "1,0.json").write_text(json.dumps(character_to_json(mult)))
    assert DiskCharacters(a2, str(legacy)).get((1, 0)) is None


def test_disk_cache_failed_write_leaves_no_file(tmp_path, monkeypatch):
    a2 = build_root_datum("A2")
    store = DiskCharacters(a2, str(tmp_path))

    def failing_dump(obj, fh):
        fh.write("{")
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", failing_dump)
    with pytest.raises(OSError, match="disk full"):
        store[(1, 0)] = {(1, 0): 1}
    assert _files_under(tmp_path) == []
    assert store.get((1, 0)) is None


@pytest.mark.parametrize(
    "argv, type_dir",
    [
        (["character", "--type", "B2", "--weight", "1,1"], "B2"),
        (["jantzen", "--type", "A2", "--weight", "5,0", "--p", "5"], "A2"),
        (["verify-sl3", "--p", "5"], "A2"),
    ],
)
def test_character_commands_persist_characters(tmp_path, monkeypatch, capsys, argv, type_dir):
    monkeypatch.setenv("PARAHORIC_CACHE_DIR", str(tmp_path))
    assert main(argv) == 0
    capsys.readouterr()
    files = _files_under(tmp_path)
    assert files
    prefix = _type_dir(tmp_path, type_dir).relative_to(tmp_path).as_posix() + "/"
    assert all(f.startswith(prefix) and f.endswith(".json") for f in files), files


@pytest.mark.parametrize(
    "argv",
    [
        ["character", "--type", "B2", "--weight", "1,1", "--no-cache"],
        ["jantzen", "--type", "A2", "--weight", "5,0", "--p", "5", "--no-cache"],
        ["verify-sl3", "--p", "5", "--no-cache"],
        ["levi", "--type", "B3", "--theta", "0,1", "--p", "5", "--rank-refinement"],
        ["verify-unitary", "--n", "3", "--p", "3"],
    ],
)
def test_other_commands_write_no_files(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setenv("PARAHORIC_CACHE_DIR", str(tmp_path))
    assert main(argv) == 0
    capsys.readouterr()
    assert _files_under(tmp_path) == []


def test_library_calls_write_no_files(tmp_path, monkeypatch):
    monkeypatch.setenv("PARAHORIC_CACHE_DIR", str(tmp_path))
    a2, b3 = build_root_datum("A2"), build_root_datum("B3")
    chi_char(a2, (2, 1))
    jantzen_report(a2, 5, (5, 0))
    basis = extended_basis(b3)
    certify(from_parahoric(parahoric_model(b3, parse_facet_spec("0,1", basis), basis)), 5, True)
    unitary_report(3, 3)
    assert _files_under(tmp_path) == []
