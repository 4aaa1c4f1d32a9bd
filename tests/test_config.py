import dataclasses

import pytest

from freesplit.config import Config, load_config
from freesplit.errors import InvalidInput


class TestConfig:
    def test_defaults(self):
        cfg = load_config(env={})
        assert cfg == Config()

    def test_file_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nseg_len = 32\nhorizon=13\n")
        cfg = load_config(str(path), env={})
        assert cfg.seg_len == 32 and cfg.horizon == 13
        assert cfg.iterate_cap == Config().iterate_cap

    def test_env_beats_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seg_len=32\n")
        cfg = load_config(str(path), env={"FREESPLIT_SEG_LEN": "128"})
        assert cfg.seg_len == 128

    def test_unknown_key_rejected(self, tmp_path):
        # removed knobs are unknown keys like any other
        path = tmp_path / "run.cfg"
        for key in ("no_such_knob", "pf_tol", "pf_iter_cap",
                    "whitehead_max_moves", "horizon_fwd", "horizon_bwd",
                    "stability", "power_cap", "cand_len", "cand_cap",
                    "whitehead_max_letters"):
            path.write_text(f"{key}=1\n")
            with pytest.raises(InvalidInput, match=key):
                load_config(str(path), env={})

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seg_len=soon\n")
        with pytest.raises(InvalidInput):
            load_config(str(path), env={})

    def test_invalid_seg_len_rejected_on_load(self):
        with pytest.raises(InvalidInput):
            load_config(env={"FREESPLIT_SEG_LEN": "0"})

    @pytest.mark.parametrize("name", ["iterate_cap", "lam_depth_cap",
                                      "lam_len_target"])
    def test_negative_limit_rejected_on_load(self, name):
        key = "FREESPLIT_" + name.upper()
        with pytest.raises(InvalidInput, match=name):
            load_config(env={key: "-1"})
        assert getattr(load_config(env={key: "0"}), name) == 0

    def test_with_overrides(self):
        # a copy made by dataclasses.replace runs the same checks
        cfg = dataclasses.replace(Config(), seg_len=6)
        assert cfg.seg_len == 6 and Config().seg_len != 6
        with pytest.raises(InvalidInput):
            dataclasses.replace(cfg, seg_len=0)
