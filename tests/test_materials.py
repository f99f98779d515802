import math

import pytest
from hypothesis import given, strategies as st

from piezoband.materials import (
    ElasticLayer,
    InvalidMaterialError,
    MaterialFileError,
    PiezoLayer,
    ShuntedCell,
    parse_material_file,
    serialize_material_file,
)

MINIMAL_FILE = """
elastic.rho = 2500
elastic.c = 75e9
elastic.d = 1e-3
piezo.rho = 7500
piezo.cE = 117e9
piezo.e = 23.3
piezo.eps = 1.302e-8
piezo.d = 1e-3
circuit.c_over_s = 0
"""


class TestDerivedConstants:
    def test_zero_e_degenerates_to_elastic(self):
        pz = PiezoLayer(rho=1.0, cE=4.0, e=0.0, eps=1.0, d=1.0)
        assert pz.cD == 4.0
        assert pz.impedance == 2.0
        assert pz.h == 0.0

    def test_stiffened_modulus(self):
        pz = PiezoLayer(rho=1.0, cE=4.0, e=2.0, eps=1.0, d=1.0)
        assert pz.cD == 8.0
        assert pz.cD >= pz.cE

    def test_shipped_constants_against_high_precision_evaluation(self, cell):
        # Frozen from a 40-digit evaluation of the defining formulas for
        # the shipped glass/PZT-5H constants.
        el, pz = cell.elastic, cell.piezo
        assert pz.h == pytest.approx(1789554531.490015361, rel=1e-15)
        assert pz.cD == pytest.approx(158696620583.71735791, rel=1e-15)
        assert el.impedance == pytest.approx(13693063.937629152836, rel=1e-15)
        assert pz.impedance == pytest.approx(34499632.67018766657, rel=1e-15)
        assert el.slowness == pytest.approx(0.00018257418583505537115, rel=1e-15)
        assert pz.slowness == pytest.approx(0.00021739361899006568423, rel=1e-15)
        assert cell.period == 0.002

    @given(
        lam=st.floats(min_value=1e-3, max_value=1e3),
        rho=st.floats(min_value=1.0, max_value=2e4),
        c=st.floats(min_value=1e6, max_value=1e12),
    )
    def test_scale_consistency(self, lam, rho, c):
        # Scaling rho and c together leaves the slowness invariant and
        # scales the impedance linearly.
        base = ElasticLayer(rho=rho, c=c, d=1e-3)
        scaled = ElasticLayer(rho=lam * rho, c=lam * c, d=1e-3)
        assert scaled.slowness == pytest.approx(base.slowness, rel=1e-12)
        assert scaled.impedance == pytest.approx(lam * base.impedance, rel=1e-12)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs,field",
        [
            (dict(rho=-1.0, c=1e9, d=1e-3), "elastic.rho"),
            (dict(rho=2500.0, c=0.0, d=1e-3), "elastic.c"),
            (dict(rho=2500.0, c=1e9, d=0.0), "elastic.d"),
            (dict(rho=math.nan, c=1e9, d=1e-3), "elastic.rho"),
        ],
    )
    def test_elastic_invariants(self, kwargs, field):
        with pytest.raises(InvalidMaterialError, match=field):
            ElasticLayer(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            (dict(rho=0.0, cE=1e9, e=1.0, eps=1e-8, d=1e-3), "piezo.rho"),
            (dict(rho=1.0, cE=-1e9, e=1.0, eps=1e-8, d=1e-3), "piezo.cE"),
            (dict(rho=1.0, cE=1e9, e=1.0, eps=0.0, d=1e-3), "piezo.eps"),
            (dict(rho=1.0, cE=1e9, e=1.0, eps=1e-8, d=-1e-3), "piezo.d"),
            (dict(rho=1.0, cE=1e9, e=math.inf, eps=1e-8, d=1e-3), "piezo.e"),
        ],
    )
    def test_piezo_invariants(self, kwargs, field):
        with pytest.raises(InvalidMaterialError, match=field):
            PiezoLayer(**kwargs)

    def test_negative_e_is_allowed(self):
        pz = PiezoLayer(rho=1.0, cE=4.0, e=-2.0, eps=1.0, d=1.0)
        assert pz.cD == 8.0

    def test_negative_c_over_s_is_allowed(self, cell):
        assert cell.with_c_over_s(-11e-6).c_over_s == -11e-6

    def test_non_finite_c_over_s_rejected(self, cell):
        with pytest.raises(InvalidMaterialError, match="c_over_s"):
            cell.with_c_over_s(math.inf)


class TestMaterialFile:
    def test_minimal_file_round_trip(self):
        parsed = parse_material_file(MINIMAL_FILE)
        assert parsed.elastic.c == 75e9
        assert parsed.piezo.eps == 1.302e-8
        assert parsed.c_over_s == 0.0

    def test_validation_error_names_the_field(self):
        with pytest.raises(InvalidMaterialError, match="elastic.d"):
            parse_material_file(MINIMAL_FILE.replace("elastic.d = 1e-3", "elastic.d = 0"))

    def test_micro_farad_suffix(self):
        text = MINIMAL_FILE.replace("circuit.c_over_s = 0", "circuit.c_over_s = -11 uF/m2")
        assert parse_material_file(text).c_over_s == pytest.approx(-11e-6, rel=1e-15)
        micro_sign = MINIMAL_FILE.replace("circuit.c_over_s = 0", "circuit.c_over_s = -11 µF/m^2")
        assert parse_material_file(micro_sign).c_over_s == pytest.approx(-11e-6, rel=1e-15)

    def test_other_unit_suffixes(self):
        text = MINIMAL_FILE.replace("elastic.c = 75e9", "elastic.c = 75 GPa")
        text = text.replace("elastic.d = 1e-3", "elastic.d = 1 mm")
        parsed = parse_material_file(text)
        assert parsed.elastic.c == 75e9
        assert parsed.elastic.d == 1e-3

    def test_unknown_key_rejected(self):
        with pytest.raises(MaterialFileError, match="unknown key"):
            parse_material_file(MINIMAL_FILE + "piezo.color = 3\n")

    def test_missing_key_named(self):
        text = MINIMAL_FILE.replace("piezo.eps = 1.302e-8\n", "")
        with pytest.raises(MaterialFileError, match="piezo.eps"):
            parse_material_file(text)

    def test_duplicate_key_rejected(self):
        with pytest.raises(MaterialFileError, match="duplicate"):
            parse_material_file(MINIMAL_FILE + "elastic.rho = 2500\n")

    def test_syntax_error_reports_line(self):
        with pytest.raises(MaterialFileError, match="line 2"):
            parse_material_file("# comment\nelastic.rho 2500\n")

    def test_bad_unit_reports_key(self):
        text = MINIMAL_FILE.replace("elastic.c = 75e9", "elastic.c = 75 kg/m3")
        with pytest.raises(MaterialFileError, match="elastic.c"):
            parse_material_file(text)

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n" + MINIMAL_FILE + "\n# trailing\n"
        parse_material_file(text)

    def test_serialize_is_canonical_fixed_point(self, cell):
        canonical = serialize_material_file(cell)
        assert parse_material_file(canonical) == cell
        assert serialize_material_file(parse_material_file(canonical)) == canonical

    @given(
        rho1=st.floats(min_value=1.0, max_value=1e5),
        c1=st.floats(min_value=1e3, max_value=1e12),
        e=st.floats(min_value=-50.0, max_value=50.0),
        gamma=st.floats(min_value=-1e-3, max_value=1e-3),
    )
    def test_round_trip_preserves_cells(self, rho1, c1, e, gamma):
        cell = ShuntedCell(
            ElasticLayer(rho=rho1, c=c1, d=1e-3),
            PiezoLayer(rho=7500.0, cE=117e9, e=e, eps=1.302e-8, d=1e-3),
            gamma,
        )
        assert parse_material_file(serialize_material_file(cell)) == cell
