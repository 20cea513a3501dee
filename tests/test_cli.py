import hashlib
import json

import pytest

from cubichecke import builder
from cubichecke.catalog import catalog_regular, ideal_catalog
from cubichecke.cli import main
from test_serialize import MALFORMED_ENTRIES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_semisimple(capsys):
    code, out = run(capsys, "classify", "--lambda", "2,3,5")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["semisimple"] is True


def test_classify_ideal_exit_code(capsys):
    code, out = run(capsys, "classify", "--ideal", "l1+theta*l2")
    assert code == 10
    payload = json.loads(out)
    assert payload["result"]["vanishing"] == ["l1+theta*l2"]


def test_classify_invalid(capsys):
    code = main(["classify", "--lambda", "1,1,2"])
    assert code == 2


def test_classify_rejects_zero_eigenvalue(capsys):
    code, out = run(capsys, "classify", "--lambda", "0,1,2")
    assert code == 2
    assert out == ""


def test_classify_rejects_three_ideals(capsys):
    code, out = run(
        capsys, "classify",
        "--ideal", "l1+l2", "--ideal", "l1^3-l2^2*l3", "--ideal", "l2^2+l1*l3",
    )
    assert code == 2
    assert out == ""


def test_rep_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "rep.json"
    code = main(["rep", "build", "--module", "l1^2*l2", "--out", str(out_file)])
    assert code == 0
    code, out = run(capsys, "rep", "verify", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["all_passed"] is True


def test_rep_verify_corrupted(tmp_path, capsys):
    out_file = tmp_path / "rep.json"
    main(["rep", "build", "--module", "l1*l2", "--out", str(out_file)])
    data = json.loads(out_file.read_text())
    entry = data["result"]["matrices"]["2"]["entries"][0][0]
    entry["num"] = [[[0, 0, 0], ["5", "0", "0", "0"]]]
    bad = tmp_path / "corrupted.json"
    bad.write_text(json.dumps(data))
    code, out = run(capsys, "rep", "verify", "--out", str(bad))
    assert code == 20
    payload = json.loads(out)
    failed = [c for c in payload["result"]["checks"] if not c[1]]
    assert failed and failed[0][2] is not None


def test_rep_verify_rejects_zero_coefficient(tmp_path, capsys):
    out_file = tmp_path / "rep.json"
    main(["rep", "build", "--module", "l1*l2", "--out", str(out_file)])
    data = json.loads(out_file.read_text())
    entry = data["result"]["matrices"]["2"]["entries"][0][0]
    entry["num"].append([[9, 0, 0], ["0", "0", "0", "0"]])
    bad = tmp_path / "zero_coefficient.json"
    bad.write_text(json.dumps(data))
    code = main(["rep", "verify", "--out", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "zero coefficient" in captured.err


@pytest.mark.parametrize(
    "entry", [e for _name, e in MALFORMED_ENTRIES], ids=[n for n, _e in MALFORMED_ENTRIES]
)
def test_rep_verify_rejects_malformed_entry(tmp_path, capsys, entry):
    out_file = tmp_path / "rep.json"
    main(["rep", "build", "--module", "l1*l2", "--out", str(out_file)])
    data = json.loads(out_file.read_text())
    data["result"]["matrices"]["2"]["entries"][0][0] = entry
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(data))
    code = main(["rep", "verify", "--out", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""


# one malformed shape per rule: each edits the "result" of an l1*l2 build
# file in place, and the error must name the matching word
MALFORMED_MATRICES = [
    ("label_int", lambda r: r.update(label=5), "label"),
    ("label_name_int", lambda r: r.update(label={"name": 5}), "label"),
    ("context_int", lambda r: r.update(context=5), "context"),
    ("gauge_int", lambda r: r.update(gauge=5), "gauge"),
    ("matrices_not_object", lambda r: r.update(matrices=[1]), "keys"),
    ("missing_generator", lambda r: r["matrices"].pop("3"), "keys"),
    ("extra_generator", lambda r: r["matrices"].update({"4": r["matrices"]["3"]}), "keys"),
    ("matrix_not_object", lambda r: r["matrices"].update({"2": 5}), "entries"),
    ("entries_not_list", lambda r: r["matrices"]["2"].update(entries=5), "entries"),
    ("entries_not_rows", lambda r: r["matrices"]["2"].update(entries=[1, 2, 3]), "entries"),
    ("long_row", lambda r: (row := r["matrices"]["2"]["entries"][1]).append(row[0]), "entries"),
    ("other_label", lambda r: r["label"].update(name="l1^2*l2"), "3 rows of 3"),
]


@pytest.mark.parametrize(
    "corrupt,word",
    [(c, w) for _n, c, w in MALFORMED_MATRICES],
    ids=[n for n, _c, _w in MALFORMED_MATRICES],
)
def test_rep_verify_rejects_malformed_matrices(tmp_path, capsys, corrupt, word):
    out_file = tmp_path / "rep.json"
    main(["rep", "build", "--module", "l1*l2", "--out", str(out_file)])
    data = json.loads(out_file.read_text())
    corrupt(data["result"])
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(data))
    code = main(["rep", "verify", "--out", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert word in captured.err


def test_rep_rejects_missing_or_unreadable_input(tmp_path, capsys):
    out_file = tmp_path / "rep.json"
    main(["rep", "build", "--module", "l1*l2", "--out", str(out_file)])
    data = json.loads(out_file.read_text())
    top_list, result_list = tmp_path / "top_list.json", tmp_path / "result_list.json"
    top_list.write_text(json.dumps([data]))
    result_list.write_text(json.dumps({**data, "result": [data["result"]]}))
    for argv, word in (
        (["rep", "build"], "--module"),
        (["rep", "verify"], "--out"),
        (["rep", "verify", "--out", str(tmp_path)], str(tmp_path)),
        (["rep", "verify", "--out", str(tmp_path / "absent.json")], "absent.json"),
        (["rep", "verify", "--out", str(top_list)], "object"),
        (["rep", "verify", "--out", str(result_list)], "object"),
    ):
        capsys.readouterr()
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert word in captured.err


def test_internal_error_is_not_invalid_input(monkeypatch):
    # a denominator key outside its coprime base is a bug in the engine: it
    # must propagate (exit 1), not read as invalid input (2) or a failed
    # verification (20)
    full_base = builder.coprime_base
    monkeypatch.setattr(builder, "coprime_base", lambda polys: full_base(polys)[1:])
    # an uncached assembly, so the product view is built under the patch
    monkeypatch.setattr(builder, "assemble_generic", builder.assemble_generic.__wrapped__)
    with pytest.raises(RuntimeError, match="does not factor over its coprime base"):
        main(["rep", "build", "--module", "l1^3*l2^2*l3"])


def test_excluded_difference_ideal_is_invalid_input(tmp_path, capsys):
    # li - lj has no locus: the eigenvalues are pairwise distinct
    out_file = tmp_path / "rep.json"
    main(["rep", "build", "--module", "l1*l2", "--out", str(out_file)])
    data = json.loads(out_file.read_text())
    data["result"]["context"] = "l1-l2"
    diff_context = tmp_path / "diff_context.json"
    diff_context.write_text(json.dumps(data))
    for argv in (
        ["rep", "build", "--module", "l1*l2", "--ideal", "l1-l2"],
        ["rep", "verify", "--out", str(diff_context)],
        ["structure", "census", "--ideal", "l1-l2"],
    ):
        capsys.readouterr()
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert "pairwise distinct" in captured.err


@pytest.mark.parametrize("argv", [["classify", "--lambda", "2,3,5"], ["catalog"]])
def test_unwritable_out_is_invalid_input(tmp_path, capsys, argv):
    code = main(argv + ["--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "cannot write %s" % tmp_path in captured.err


def test_structure_census_checksum(capsys):
    code, out = run(capsys, "structure", "census")
    assert code == 0
    payload = json.loads(out)
    census = payload["result"]["censuses"][0]
    assert census["sum_dim_sq"] == 648
    assert len(census["entries"]) == 24


def test_structure_blocks(capsys):
    code, out = run(capsys, "structure", "blocks", "--ideal", "l1^2-theta*l2*l3")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["classes"] == [
        ["l1", "l1^4*l2^2*l3^2", "l1^3*l2^3*l3^3:theta", "l2*l3"]
    ]


def test_structure_series(capsys):
    code, out = run(
        capsys, "structure", "series", "--module", "l1^3*l2^2*l3", "--ideal", "l2+l3"
    )
    assert code == 0
    payload = json.loads(out)
    dims = sorted(f["dim"] for f in payload["result"]["factors"])
    assert dims == [2, 4]


def test_structure_census_pair(capsys):
    code, out = run(
        capsys,
        "structure", "census", "--ideal", "l1+theta*l2", "--ideal", "l2+theta*l3",
    )
    assert code == 0
    payload = json.loads(out)
    names = {e["label"] for e in payload["result"]["censuses"][0]["entries"]}
    assert {"l1^2*l3", "l1*l2^2", "l2*l3^2"} <= names


def test_structure_census_incompatible(capsys):
    code = main(
        ["structure", "census", "--ideal", "l1^2-theta*l2*l3", "--ideal", "l2^2-theta*l1*l3"]
    )
    assert code == 2


def test_catalog_dump_deterministic(capsys):
    code, out1 = run(capsys, "catalog")
    assert code == 0
    _code, out2 = run(capsys, "catalog")
    assert out1 == out2
    payload = json.loads(out1)
    assert len(payload["result"]["level4"]) == 24
    assert len(payload["result"]["ideals"]) == 33


def test_markdown_format(capsys):
    code, out = run(capsys, "classify", "--lambda", "2,3,5", "--format", "markdown")
    assert code == 0
    assert out.startswith("| input |")


# sha256 of stdout for commands whose reports must stay byte-identical
# across refactors of the scalar and structure layers
REPORT_DIGESTS = [
    (("catalog",), 0,
     "1d7ecbe4566a82683d4c8ec01d1297918efe6f164fab931431445ab894cff006"),
    (("structure", "census"), 0,
     "b8e5caaa5bdd9efeecd0bf535cf4e17a8c2c4d295663cbb8ea734878dde1edf0"),
    (("rep", "build", "--module", "l1^2*l2"), 0,
     "2b260539e5c5e6145f86862f000a81a1bd6d71f0c45508141f4d4a19b3e8a88b"),
    (("rep", "build", "--module", "l1^2*l2", "--ideal", "l1+i*l2"), 0,
     "fe08fe30e5089b4a5cb276f159d0906982304e74dfbf2c50c6803ad521407ea2"),
    (("classify", "--ideal", "l1+theta*l2"), 10,
     "6b8974fa763c1a158a27f3b001ed5ec55ecd4f5a1a8015435ae5f7d72680361b"),
    (("structure", "series", "--module", "l1^3*l2^2*l3", "--ideal", "l2+l3"), 0,
     "78843f8caca5e143f4b5ee971ca1182b50b4c0a6bfe4a5f6f8b40b62253986de"),
    (("structure", "blocks", "--ideal", "l1+i*l2"), 0,
     "fbf8e247bbae20a9828984efbd63f045da913acf63f43731be72793a5315d56a"),
    (("structure", "census", "--ideal", "l1+l3"), 0,
     "4d4665fcbccd53d8ffd20876b26c7771cb2a66040f6d1097849b57138ba81c99"),
    (("structure", "series", "--module", "l1^4*l2^2*l3^2", "--ideal", "l2^3-l1^2*l3",
      "--orientation", "transpose"), 0,
     "e6d2191d6b698ffd07ed14d5d3a6c052078e98ee38a0a4fa192f0bd2631c9b2b"),
    (("structure", "census", "--ideal", "l2^2+l1*l3"), 0,
     "29a99d06222267cd6c8315afed97aed6dbbc918580029d3592a46b8967649ed0"),
    (("structure", "blocks", "--ideal", "l1^3-l2^2*l3"), 0,
     "a68a57ee9b9d236997b2622fced86ecd5f543cdfa09ebaf3c7df5e619d858f87"),
    (("structure", "sequence", "--ideal", "l1+theta*l2"), 0,
     "db63f25d01ffa41e19a523eda572826bbb99c04df7c2e5a448ba5e8d1b225d19"),
    (("structure", "census", "--ideal", "l2^3-l1^2*l3", "--ideal", "l3^3-l1^2*l2"), 0,
     "963f89eccb2348d53f6f28b9908d4f8a4e5805448b355dfe2df9c537ed73578b"),
    (("structure", "census", "--ideal", "l1+i*l2", "--ideal", "l3^2+l1*l2"), 0,
     "5c892b65e10c0f358bc5f71790f976e7055e456a72d12c1182b8d77006d96473"),
    (("classify", "--ideal", "l1+i*l2", "--ideal", "l3^2+l1*l2"), 10,
     "8cb3ec2e3dff6d3adeb0d091f2f93db956ece89ae89901fd87a6704688fec416"),
    (("verify-all", "--level", "fast"), 0,
     "758127152f23304091b50ff734efb9f47b0b58e90a1d6ef1e24c58337151bf5e"),
]


@pytest.mark.parametrize(
    "argv,code,digest", REPORT_DIGESTS, ids=[" ".join(argv) for argv, _c, _d in REPORT_DIGESTS]
)
def test_report_bytes_pinned(capsys, argv, code, digest):
    got_code, out = run(capsys, *argv)
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _sweep_commands():
    """The catalog input space: every per-ideal command, ``classify`` on every
    unordered pair of ideals, and ``structure series`` on every (module, ideal)."""
    ideals = [spec.name for spec in ideal_catalog()]
    for name in ideals:
        yield ("classify", "--ideal", name)
        for sub in ("blocks", "sequence", "census"):
            yield ("structure", sub, "--ideal", name)
    for k, a in enumerate(ideals):
        for b in ideals[k + 1 :]:
            yield ("classify", "--ideal", a, "--ideal", b)
    for spec in catalog_regular(4):
        for name in ideals:
            yield ("structure", "series", "--module", spec.label.name, "--ideal", name)


# sha256 over one line (argv, exit code, first stderr line, sha256 of stdout)
# per command of the sweep; an intended change of any exit code or message
# changes it, and is recorded with the old and new digests
SWEEP_DIGEST = "8d484a84c5f110eae01b17c07bbf7f382a09c45adb30105cd2098bd57d1ae59f"


def test_cli_sweep_over_catalog_pinned(capsys):
    lines = []
    for argv in _sweep_commands():
        code = main(list(argv))
        captured = capsys.readouterr()
        err = captured.err.splitlines()[0] if captured.err else ""
        out = hashlib.sha256(captured.out.encode()).hexdigest()
        lines.append(repr((argv, code, err, out)))
    assert len(lines) == 33 * 4 + 528 + 24 * 33
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SWEEP_DIGEST
