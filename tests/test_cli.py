import json
import math
import errno
import os

import pytest

from piezoband import cli
from piezoband.band_structure import group_velocity, trace_branches
from piezoband.cli import DEFAULT_SWEEP_UF, _bands_csv, main
from piezoband.materials import default_cell, serialize_material_file
from piezoband.quasistatic import special_capacitances


@pytest.fixture()
def material_file(tmp_path):
    path = tmp_path / "cell.mat"
    path.write_text(serialize_material_file(default_cell()), encoding="utf-8")
    return str(path)


def interior_gamma_text():
    c_inf, c_zero = special_capacitances(default_cell())
    return f"{0.5 * (c_inf + c_zero):.17g}"


class TestEffective:
    def test_report_fields(self, capsys):
        assert main(["effective"]) == 0
        out = capsys.readouterr().out
        assert "regime: positive" in out
        assert "c_eff [Pa]: 101860664600.53964" in out
        assert "v_eff [m/s]: 4513.5499244062794" in out
        assert "C0/S [F/m^2]: -1.7660085470085467e-05" in out
        assert "Cinf/S [F/m^2]: -1.5847552083333333e-05" in out

    def test_negative_regime_report(self, capsys):
        assert main(["effective", f"--c-over-s={interior_gamma_text()}"]) == 0
        out = capsys.readouterr().out
        assert "regime: negative" in out
        assert "undefined (regime: negative)" in out

    def test_sweep_csv_structure(self, tmp_path, capsys):
        out_file = tmp_path / "ceff.csv"
        assert main(["effective", "--sweep", "--out", str(out_file)]) == 0
        capsys.readouterr()
        lines = out_file.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "c_over_s [F/m^2],c_eff [Pa],regime [-]"
        rows = [line.split(",") for line in lines[1:]]
        regimes = [r[2] for r in rows]
        # Exactly one pole marker and one zero marker from the inserted
        # special capacitances.
        assert regimes.count("pole") == 1
        assert regimes.count("zero") == 1
        # Exactly one sign change among consecutive finite samples that is
        # not accounted for by the pole (the crossing through zero).
        values = [(float(r[1]), r[2]) for r in rows]
        changes_at_pole = 0
        changes_elsewhere = 0
        for (va, ra), (vb, rb) in zip(values[:-1], values[1:]):
            if "pole" in (ra, rb) or "zero" in (ra, rb):
                continue
            if math.isfinite(va) and math.isfinite(vb) and va * vb < 0:
                changes_elsewhere += 1
        for i, (v, r) in enumerate(values):
            if r == "pole" and 0 < i < len(values) - 1:
                changes_at_pole += int(values[i - 1][0] * values[i + 1][0] < 0)
            if r == "zero" and 0 < i < len(values) - 1:
                assert values[i - 1][0] * values[i + 1][0] < 0
        assert changes_elsewhere == 0
        assert changes_at_pole == 1

    def test_bad_sweep_spec(self, capsys):
        assert main(["effective", "--sweep", "1:2"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"

    def test_sweep_grid_collision_with_special_keeps_one_marker(self, tmp_path, capsys):
        # A sweep range whose endpoint sits exactly on the pole capacitance
        # must still emit exactly one pole-marked row.
        c_inf, _ = special_capacitances(default_cell())
        out_file = tmp_path / "ceff.csv"
        spec = f"{c_inf:.17g}:0:11"
        assert main(["effective", f"--sweep={spec}", "--out", str(out_file)]) == 0
        capsys.readouterr()
        rows = out_file.read_text(encoding="utf-8").splitlines()[1:]
        assert sum(r.endswith(",pole") for r in rows) == 1
        gammas = [float(r.split(",")[0]) for r in rows]
        assert len(gammas) == len(set(gammas))

    def test_sweep_stdout_is_pure_csv(self, capsys):
        assert main(["effective", "--sweep"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("c_over_s [F/m^2],")
        assert "regime: " not in out


class TestBands:
    def test_open_circuit_first_row_is_origin(self, tmp_path, capsys):
        out = tmp_path / "bands.csv"
        assert main(["bands", "--k-points", "60", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "branch_index,K*T/pi [-],omega [rad/s],f [Hz],group_velocity [m/s]"
        first = lines[1].split(",")
        assert first[0] == "1" and float(first[1]) == 0.0 and float(first[2]) == 0.0

    def test_detached_first_branch_inside_interval(self, tmp_path):
        out = tmp_path / "bands.csv"
        assert main([
            "bands", f"--c-over-s={interior_gamma_text()}", "--k-points", "60",
            "--out", str(out),
        ]) == 0
        rows = [l.split(",") for l in out.read_text(encoding="utf-8").splitlines()[1:]]
        branch1 = [float(r[2]) for r in rows if r[0] == "1"]
        assert min(branch1) > 0.0

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["bands", "--c-over-s=-11uF/m2", "--k-points", "80"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_short_top_branch_gets_finite_group_velocity(self, tmp_path):
        # An omega_max that clips the top branch to fewer than 5 samples
        # still gives each of its samples a finite group velocity.
        out = tmp_path / "bands.csv"
        assert main(["bands", "--k-points", "40", "--omega-max=2.5586e7 rad/s",
                     "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text(encoding="utf-8").splitlines()[1:]]
        top = [r for r in rows if r[0] == max(r2[0] for r2 in rows)]
        assert 0 < len(top) < 5
        assert all(math.isfinite(float(r[4])) for r in rows)

    def test_origin_row_is_infinite_at_the_pole_capacitance(self, tmp_path):
        c_inf, _ = special_capacitances(default_cell())
        out = tmp_path / "bands.csv"
        assert main(["bands", f"--c-over-s={c_inf!r}", "--out", str(out)]) == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert rows[0].startswith("1,0,0,") and rows[0].endswith(",inf")
        assert not any("inf" in r or "nan" in r for r in rows[1:])

    def test_material_file_and_unit_flags(self, material_file, tmp_path):
        out = tmp_path / "bands.csv"
        code = main([
            "bands", "--material", material_file, "--c-over-s=-11 uF/m2",
            "--k-points", "40", "--omega-max", "1 MHz", "--out", str(out),
        ])
        assert code == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert all(float(r.split(",")[2]) <= 2e6 * math.pi for r in rows)


def reference_bands_csv(cell, branches):
    """The row-by-row bands writer: one formatted line per sample."""
    lines = ["branch_index,K*T/pi [-],omega [rad/s],f [Hz],group_velocity [m/s]"]
    for branch in branches:
        w = branch.omega
        v_g = group_velocity(cell, branch.k, w)
        columns = (branch.k * cell.period / math.pi, w, w / (2.0 * math.pi), v_g)
        rows = zip(*(c.tolist() for c in columns))
        lines += ["%d,%.17g,%.17g,%.17g,%.17g" % (branch.index, *row) for row in rows]
    return "\n".join(lines) + "\n"


def test_bands_csv_matches_row_by_row_writer():
    # The sweep's 10 panels, a top branch of fewer than 5 samples and an
    # empty branch list.
    cell = default_cell()
    for gamma in [uf * 1e-6 for uf in DEFAULT_SWEEP_UF] + [0.0]:
        panel = cell.with_c_over_s(gamma)
        branches = trace_branches(panel)
        assert _bands_csv(panel, branches) == reference_bands_csv(panel, branches)
    branches = trace_branches(cell, 40, 2.5586e7)
    assert 0 < len(branches[-1]) < 5
    assert _bands_csv(cell, branches) == reference_bands_csv(cell, branches)
    assert "nan" not in _bands_csv(cell, branches)
    assert _bands_csv(cell, []) == reference_bands_csv(cell, [])


class TestStopbands:
    def test_quasistatic_flag_row(self, tmp_path):
        out = tmp_path / "sb.csv"
        assert main(["stopbands", f"--c-over-s={interior_gamma_text()}", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "omega_lo [rad/s],omega_hi [rad/s],quasistatic_flag [-]"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and first[2] == "true"

    def test_open_circuit_first_row_above_zero(self, tmp_path):
        out = tmp_path / "sb.csv"
        assert main(["stopbands", "--out", str(out)]) == 0
        first = out.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert float(first[0]) > 0.0 and first[2] == "false"

    def test_matched_cell_empty_table(self, tmp_path):
        matched = tmp_path / "matched.mat"
        matched.write_text(
            "elastic.rho = 2500\nelastic.c = 75 GPa\nelastic.d = 1 mm\n"
            "piezo.rho = 2500\npiezo.cE = 75 GPa\npiezo.e = 0\n"
            "piezo.eps = 1e-8 F/m\npiezo.d = 1.3 mm\ncircuit.c_over_s = 0\n",
            encoding="utf-8",
        )
        out = tmp_path / "sb.csv"
        assert main(["stopbands", "--material", str(matched), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").splitlines()[1:] == []


class TestSweep:
    def test_default_sweep_count_and_manifest(self, tmp_path):
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--k-points", "40", "--out", str(out_dir)]) == 0
        csvs = sorted(p.name for p in out_dir.glob("*.csv"))
        assert len(csvs) == 10  # 9 panels + the open-circuit reference
        assert "reference_c0.csv" in csvs
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["tool"] == "piezoband"
        assert len(manifest["panels"]) == 9
        assert manifest["panels"][0]["c_over_s"] == 0.0
        assert manifest["settings"]["k_points"] == 40
        assert manifest["reference"]["file"] == "reference_c0.csv"

    @pytest.mark.parametrize("values, traces", [(None, 9), ("-11uF/m2,-12uF/m2", 3)])
    def test_open_circuit_is_traced_once(self, tmp_path, monkeypatch, values, traces):
        # The default sweep's first panel, C/S = 0, is the reference cell: its
        # CSV is written twice from one trace. Without such a panel the
        # reference is traced on its own.
        calls = []
        monkeypatch.setattr(cli, "trace_branches", lambda *a: calls.append(a) or trace_branches(*a))
        out_dir = tmp_path / "sweep"
        args = ["sweep", "--k-points", "40", "--out", str(out_dir)]
        assert main(args + ([f"--values={values}"] if values else [])) == 0
        assert len(calls) == traces
        reference = (out_dir / "reference_c0.csv").read_bytes()
        assert (reference == (out_dir / "bands_00.csv").read_bytes()) == (values is None)
        if values:
            reference_cell = default_cell(0.0)
            expected = _bands_csv(reference_cell, trace_branches(reference_cell, 40))
            assert reference.decode("utf-8") == expected

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["sweep", "--values", "0,-11uF/m2", "--k-points", "40"]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(dir_a)]) == 0
        assert main(args + ["--out", str(dir_b)]) == 0
        for name in ("bands_00.csv", "bands_01.csv", "reference_c0.csv", "manifest.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_flat_panel_is_detected(self, cell, tmp_path):
        from piezoband.band_structure import find_flat_capacitance

        c_star = find_flat_capacitance(cell, (-16.5e-6, -16.2e-6), k_points=120)
        out_dir = tmp_path / "sweep"
        code = main([
            "sweep", "--values", f"0,{c_star:.17g}", "--k-points", "120",
            "--out", str(out_dir),
        ])
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["panels"][1]["flat_branch_indices"] == [1]
        assert manifest["panels"][0]["flat_branch_indices"] == []

    def test_empty_values_is_an_input_error(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--values=", "--k-points", "40", "--out", str(out_dir)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["type"]) == ("input", "UnitError")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "bad_args, message",
        [pytest.param(["--flatness-tol", tol], "flatness_tol", id=tol)
         for tol in ("-1", "0", "nan", "inf")]
        + [pytest.param(["--k-points", "1"], "k_points", id="k-points-1")],
    )
    def test_bad_flatness_tol_exits_2_before_writing_a_panel(
        self, bad_args, message, tmp_path, monkeypatch, capsys
    ):
        # A bad --flatness-tol is rejected before any panel is traced (it
        # used to cost one full trace); a bad --k-points, by the trace.
        traced = []
        monkeypatch.setattr(cli, "trace_branches", lambda *a: traced.append(a) or trace_branches(*a))
        out_dir = tmp_path / "sweep"
        code = main(["sweep", "--values", "0", "--k-points", "40", *bad_args,
                     "--out", str(out_dir)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["type"]) == ("input", "ValueError")
        assert message in err["message"]
        assert len(traced) == (message == "k_points")
        assert not out_dir.exists()


class TestOverwrite:
    """An existing output is overwritten in place, with no stale tail."""

    @pytest.mark.parametrize("argv", [
        ["bands", "--k-points", "20"],
        ["stopbands"],
        ["effective", "--sweep=-40uF/m2:0:21"],
    ], ids=["bands", "stopbands", "effective-sweep"])
    def test_longer_file_of_other_bytes_is_replaced(self, argv, tmp_path, capsys):
        fresh, used = tmp_path / "fresh.csv", tmp_path / "used.csv"
        assert main(argv + ["--out", str(fresh)]) == 0
        expected = fresh.read_bytes()
        used.write_bytes(b"\x00stale\r\n" * len(expected))
        assert main(argv + ["--out", str(used)]) == 0
        capsys.readouterr()
        assert used.read_bytes() == expected

    @pytest.mark.parametrize("longer, shorter", [
        (["--values", "0,-11uF/m2", "--k-points", "40"], ["--values", "0,-11uF/m2", "--k-points", "9"]),
        ([], ["--k-points", "50"]),
    ], ids=["two-values", "default"])
    def test_sweep_rerun_with_fewer_k_points_shrinks_every_file(self, longer, shorter, tmp_path):
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        assert main(["sweep", *longer, "--out", str(used)]) == 0
        first = {p.name: p.read_bytes() for p in used.iterdir()}
        assert main(["sweep", *shorter, "--out", str(used)]) == 0
        assert main(["sweep", *shorter, "--out", str(fresh)]) == 0
        assert sorted(p.name for p in used.iterdir()) == sorted(first)
        for name, old in first.items():
            assert (used / name).read_bytes() == (fresh / name).read_bytes()
            assert (used / name).stat().st_size < len(old)
        # And back: the longer run over the shorter one restores its bytes.
        assert main(["sweep", *longer, "--out", str(used)]) == 0
        assert {p.name: p.read_bytes() for p in used.iterdir()} == first

    def test_inode_mode_and_symlink_target_are_kept(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("old\n" * 10_000, encoding="utf-8")
        target.chmod(0o640)
        inode = target.stat().st_ino
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(["bands", "--k-points", "5", "--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.stat().st_ino == inode
        assert target.stat().st_mode & 0o777 == 0o640
        assert target.read_text(encoding="utf-8").startswith("branch_index,")
        assert "old" not in target.read_text(encoding="utf-8")

    def test_out_to_the_null_device(self):
        assert main(["bands", "--k-points", "5", "--out", os.devnull]) == 0

    def test_existing_output_is_not_opened_truncating(self, tmp_path, monkeypatch):
        # Pins the mechanism: a stall of the disk cannot be timed
        # deterministically, but it is the truncating open of an existing
        # output that waits for the disk on ext4.
        out = tmp_path / "bands.csv"
        out.write_text("~" * 100_000, encoding="utf-8")
        flags = []
        real_open = os.open

        def recording_open(path, flag, *args, **kwargs):
            if os.fspath(path) == str(out):
                flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(cli.os, "open", recording_open)
        assert main(["bands", "--k-points", "5", "--out", str(out)]) == 0
        assert flags and not any(f & os.O_TRUNC for f in flags)
        assert "~" not in out.read_text(encoding="utf-8")

    def test_a_failed_write_leaves_no_old_bytes(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "bands.csv"
        out.write_text("~" * 1_000_000, encoding="utf-8")
        real_open = open

        def failing_open(*args, **kwargs):
            fh = real_open(*args, **kwargs)

            def write(text):
                # Half the text reaches the file, then the disk fills up.
                type(fh).write(fh, text[: len(text) // 2])
                fh.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            fh.write = write
            return fh

        monkeypatch.setattr(cli, "open", failing_open, raising=False)
        assert main(["bands", "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["type"]) == ("input", "OSError")
        assert out.read_bytes() == b""


class TestErrorHandling:
    def test_missing_field_names_it_with_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_text("elastic.rho = 2500\n", encoding="utf-8")
        assert main(["effective", "--material", str(bad)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"
        assert "elastic.c" in err["message"]

    def test_invalid_value_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_text(
            serialize_material_file(default_cell()).replace(
                "elastic.d = 0.001", "elastic.d = 0"
            ),
            encoding="utf-8",
        )
        assert main(["effective", "--material", str(bad)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "elastic.d" in err["message"]

    @pytest.mark.parametrize("omega_max", ["nan", "inf", "-1", "0", "1e300"])
    def test_bad_omega_max_exit_2(self, omega_max, capsys):
        # Regression: nan exited 0 with the single row 1,0,0,0,nan, and 1e300
        # exited 0 after overflow warnings (errors under this suite's
        # RuntimeWarning filter) with rows at 7e295 rad/s.
        assert main(["bands", f"--omega-max={omega_max}", "--k-points", "5", "--out", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert (err["error"], err["type"]) == ("input", "ValueError")

    def test_effective_out_without_sweep_exit_2(self, tmp_path, capsys):
        # Regression: --out without --sweep printed the report, exited 0
        # and wrote nothing, so the requested file was dropped silently.
        out = tmp_path / "ceff.csv"
        assert main(["effective", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert (err["error"], err["type"]) == ("input", "ValueError")
        assert "--sweep" in err["message"]
        assert not out.exists()

    def test_unknown_unit_exit_2(self, capsys):
        assert main(["bands", "--c-over-s=1 parsec", "--out", "-"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "input"

    def test_numerical_error_exit_3(self, capsys):
        # A same-sign flat-band bracket is a numerical precondition failure.
        from piezoband.band_structure import BracketError
        from piezoband.cli import _fail

        assert _fail("numerical", 3, BracketError("no sign change")) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "numerical", "message": "no sign change", "type": "BracketError"}

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["bands", "--k-points", "five", "--out", "-"],
                     "piezoband bands: argument --k-points: invalid int value: 'five'", id="bad int"),
        pytest.param([], "piezoband: the following arguments are required: command", id="no command"),
    ])
    def test_usage_error_exit_2(self, argv, message, capsys):
        # Regression: argparse printed plain usage text and main raised
        # SystemExit(2) instead of returning 2 with the JSON error.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "input", "message": message, "type": "ValueError"}

    def test_version_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--version"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out == f"piezoband {cli.__version__}\n"

    @pytest.mark.parametrize("case, expected", [
        ("missing material", "FileNotFoundError"),
        ("bands out under a file", "NotADirectoryError"),
        ("sweep out onto a file", "FileExistsError"),
    ])
    def test_missing_file_exit_2(self, case, expected, tmp_path, capsys):
        # Any OSError of an input or output path is an input error, exit 2.
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        argv = {
            "missing material": ["effective", "--material", str(tmp_path / "absent.mat")],
            "bands out under a file": ["bands", "--k-points", "5", "--out", str(taken / "x.csv")],
            "sweep out onto a file": ["sweep", "--values", "0", "--k-points", "5", "--out", str(taken)],
        }[case]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["type"]) == ("input", expected)
