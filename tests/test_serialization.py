import json
import math

import numpy as np
import pytest

from wicknls import field as fld
from wicknls import serialization as ser
from wicknls.dynamics import EquationSpec, IntegratorSpec, evolve


class TestFieldFiles:
    def test_dict_round_trip(self):
        rng = np.random.default_rng(0)
        u = fld.TorusField(rng.standard_normal(7) + 1j * rng.standard_normal(7), 3)
        v = ser.field_from_dict(ser.field_to_dict(u))
        assert np.array_equal(u.coeffs, v.coeffs)

    def test_file_round_trip_bit_exact(self, tmp_path):
        # full double precision survives: save -> load -> save is byte-stable
        rng = np.random.default_rng(1)
        u = fld.TorusField(np.exp(rng.standard_normal(9) * 10)
                           + 1j * rng.standard_normal(9) / 3.0, 4)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        ser.save_field(u, p1)
        ser.save_field(ser.load_field(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_record(self):
        with pytest.raises(ValueError):
            ser.field_from_dict({"format": "other", "coeffs": []})

    @pytest.mark.parametrize("record", [
        [1, 2], "torus-field", None,
        {"format": "torus-field", "max_mode": 0},
        {"format": "torus-field", "coeffs": [[1.0, 0.0]]},
        {"format": "torus-field", "max_mode": 0, "coeffs": [1.0]},
        {"format": "torus-field", "max_mode": 0, "coeffs": [[1.0, "a"]]},
        {"format": "torus-field", "max_mode": 0, "coeffs": [[1.0, 0.0, 2.0]]},
        {"format": "torus-field", "max_mode": [0], "coeffs": [[1.0, 0.0]]},
        {"format": "torus-field", "max_mode": 1, "coeffs": [[1.0, 0.0]]},
        {"format": "torus-field", "max_mode": 0.7, "coeffs": [[1.0, 0.0]]},
        {"format": "torus-field", "max_mode": True, "coeffs": [[1.0, 0.0]] * 3},
        {"format": "torus-field", "max_mode": "1", "coeffs": [[1.0, 0.0]] * 3},
    ])
    def test_malformed_record_is_a_value_error(self, record):
        with pytest.raises(ValueError):
            ser.field_from_dict(record)

    def test_self_describing(self, tmp_path):
        u = fld.TorusField.single_mode(1, 0.1 + 0.2j)
        ser.save_field(u, tmp_path / "f.json")
        d = json.loads((tmp_path / "f.json").read_text())
        assert d["format"] == "torus-field" and d["max_mode"] == 1
        assert d["coeffs"][2] == [0.1, 0.2]


class TestCanonicalJson:
    def test_key_order_independent(self):
        assert ser.canonical_json({"b": 1, "a": 2}) == ser.canonical_json({"a": 2, "b": 1})

    def test_hash_stable(self):
        assert ser.spec_hash({"x": 1.5}) == ser.spec_hash({"x": 1.5})
        assert len(ser.spec_hash({"x": 1.5})) == 12


class TestTrajectoryRecords:
    def test_ledger_columns(self):
        u0 = fld.TorusField.from_modes({0: 0.5, 1: 0.25})
        eq = EquationSpec("wnls", sign=1)
        integ = IntegratorSpec("strang", dt=0.01, t_end=0.1, snapshot_stride=5)
        records = ser.trajectory_records(evolve(u0, eq, integ))
        assert len(records) == 3
        for rec in records:
            assert {"record", "t", "mass", "momentum", "hamiltonian", "mu",
                    "norms"} <= set(rec)
            assert set(rec["norms"]) == {"l2", "h1"}

    def test_wick_hamiltonian_present_when_applicable(self):
        u0 = fld.TorusField.from_modes({0: 0.5, 1: 0.25}, max_mode=4)
        eq = EquationSpec("truncated-wnls-hamiltonian", sign=1, truncation=4,
                          alpha=1.0)
        integ = IntegratorSpec("strang", dt=0.01, t_end=0.1, snapshot_stride=10)
        records = ser.trajectory_records(evolve(u0, eq, integ))
        assert all("wick_hamiltonian" in rec for rec in records)

    def test_ndjson_round_trip(self, tmp_path):
        path = tmp_path / "x.ndjson"
        ser.write_ndjson(path, [{"record": "meta", "v": 1}, {"record": "row", "t": 0.5}])
        back = ser.read_ndjson(path)
        assert back[0]["record"] == "meta" and back[1]["t"] == 0.5

    def test_ndjson_is_strict_json(self, tmp_path):
        # non-finite floats at any depth become null, listed by key path in
        # file order; a finite record is written as canonical_json writes it
        finite = {"record": "row", "t": 0.1, "v": [1.0, -0.0, 1e300], "d": {"x": 2}}
        odd = {"record": "row", "t": math.nan, "values": [1.0, math.inf, np.float64(-np.inf)],
               "details": {"ratio": math.inf, "rho": 0.5, "nested": {"r": [math.nan]}}}
        path = tmp_path / "x.ndjson"
        ser.write_ndjson(path, [finite, odd])
        lines = path.read_text().splitlines()
        assert lines[0] == ser.canonical_json(finite)

        def refuse(token):
            raise ValueError(token)
        back = [json.loads(line, parse_constant=refuse) for line in lines]
        assert back[1]["non_finite"] == ["details.nested.r.0", "details.ratio", "t",
                                         "values.1", "values.2"]
        assert back[1]["values"] == [1.0, None, None] and back[1]["t"] is None
        assert back[1]["details"] == {"ratio": None, "rho": 0.5, "nested": {"r": [None]}}
        assert "non_finite" not in back[0]


class TestCsv:
    def test_meta_comment_and_float_repr(self):
        text = ser.csv_text(("a", "b"), [(1, 0.1), (2, 1.0 / 3.0)], meta={"k": 1})
        lines = text.splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "a,b"
        assert lines[2] == "1,0.1"
        assert float(lines[3].split(",")[1]) == 1.0 / 3.0
