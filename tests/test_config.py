"""Tests for the INI config readers."""

import re
from pathlib import Path

import pytest

from twinreg.benchmark import SuiteSpec
from twinreg.config import (
    ConfigError,
    grid_spec_from,
    hierarchy_config_from,
    suite_from,
    tsvr_params_from,
)
from twinreg.hierarchy import HierarchyConfig, InvalidDivisor
from twinreg.search import GridSpec
from twinreg.tsvr import KernelSpec, TsvrParams


@pytest.fixture()
def ini(tmp_path):
    def write(text):
        path = tmp_path / "config.ini"
        path.write_text(text)
        return path

    return write


class TestTsvr:
    def test_every_key(self, ini):
        params = tsvr_params_from(ini(
            "[tsvr]\np1 = 2\np2 = 0.5\np3 = 0.25\np4 = 4\neps1 = 0.1\neps2 = 0.2\n"
            "[kernel]\nkind = gaussian\ntau = 1.5\n"
        ))
        assert params == TsvrParams(2.0, 0.5, 0.25, 4.0, 0.1, 0.2,
                                    KernelSpec("gaussian", 1.5))

    def test_defaults(self, ini):
        params = tsvr_params_from(ini("[tsvr]\n"))
        assert params == TsvrParams(1.0, 1.0, 0.1, 0.1, 0.0, 0.0, KernelSpec())

    @pytest.mark.parametrize("word", ["auto", "none", "AUTO", ""])
    def test_kernel_tau_auto(self, ini, word):
        params = tsvr_params_from(ini(f"[tsvr]\n[kernel]\nkind = linear\ntau = {word}\n"))
        assert params.kernel == KernelSpec("linear", None)

    def test_missing_section(self, ini):
        with pytest.raises(ConfigError):
            tsvr_params_from(ini("[kernel]\nkind = linear\n"))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError):
            tsvr_params_from(tmp_path / "absent.ini")

    @pytest.mark.parametrize("text", [
        "[tsvr]\np1 = big\n",
        "[tsvr]\neps1 = auto\n",
        "[tsvr]\np3 = -1\n",
        "[tsvr]\n[kernel]\nkind = cubic\n",
        "[tsvr]\n[kernel]\nkind = gaussian\n",
        "[tsvr]\n[kernel]\nkind = gaussian\ntau = wide\n",
        "[tsvr]\np1 = inf\n",
        "[tsvr]\np4 = nan\n",
        "[tsvr]\neps1 = nan\n",
        "[tsvr]\neps2 = inf\n",
        "[tsvr]\n[kernel]\nkind = gaussian\ntau = inf\n",
    ])
    def test_bad_values(self, ini, text):
        with pytest.raises(ConfigError):
            tsvr_params_from(ini(text))

    @pytest.mark.parametrize("text", [
        "p1 = 2\n",  # no section header
        "[tsvr]\np1 = 2\np1 = 3\n",  # duplicate key
        "[tsvr]\np1 = 2\n[tsvr]\np2 = 3\n",  # duplicate section
    ])
    def test_malformed_file(self, ini, text):
        with pytest.raises(ConfigError, match="cannot parse"):
            tsvr_params_from(ini(text))

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "config.ini"
        path.write_bytes(b"[tsvr]\np1 = \xff\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            tsvr_params_from(path)

    def test_percent_is_plain_text(self, ini):
        with pytest.raises(ConfigError, match="p1"):
            tsvr_params_from(ini("[tsvr]\np1 = 50%\n"))

    def test_bad_number_names_the_key(self, ini):
        with pytest.raises(ConfigError, match="p2"):
            tsvr_params_from(ini("[tsvr]\np2 = 1,5\n"))


class TestHierarchy:
    def test_every_key(self, ini):
        config = hierarchy_config_from(ini(
            "[hierarchy]\nmax_layers = 4\ntau1 = 3.5\nscale_divisor = 3\n"
            "s_factor = 2\neps = 0.05\ntube_tolerance = 0.01\n"
            "stop_residual_var = 1e-3\nstop_rel_improvement = 0.02\n"
            "pruning_enabled = off\np3 = 0.5\np4 = 0.25\n"
        ))
        assert config == HierarchyConfig(
            max_layers=4, tau1=3.5, scale_divisor=3.0, s_factor=2.0, eps=0.05,
            tube_tolerance=0.01, stop_residual_var=1e-3,
            stop_rel_improvement=0.02, pruning_enabled=False,
            base_params=TsvrParams(1.0, 1.0, 0.5, 0.25),
        )

    def test_defaults_without_section(self, ini):
        config = hierarchy_config_from(ini("[tsvr]\np1 = 2\n"))
        assert config == HierarchyConfig(base_params=TsvrParams(1.0, 1.0, 0.1, 0.1))

    def test_p4_defaults_to_p3(self, ini):
        config = hierarchy_config_from(ini("[hierarchy]\np3 = 0.75\n"))
        assert config.regularization() == (0.75, 0.75)

    @pytest.mark.parametrize("key", ["tau1", "tube_tolerance", "stop_residual_var"])
    @pytest.mark.parametrize("word", ["auto", "None", ""])
    def test_optional_fields_accept_auto(self, ini, key, word):
        config = hierarchy_config_from(ini(f"[hierarchy]\n{key} = {word}\n"))
        assert getattr(config, key) is None

    @pytest.mark.parametrize("word, value", [
        ("1", True), ("yes", True), ("TRUE", True), ("on", True),
        ("0", False), ("no", False), ("false", False), ("Off", False),
    ])
    def test_boolean_words(self, ini, word, value):
        config = hierarchy_config_from(ini(f"[hierarchy]\npruning_enabled = {word}\n"))
        assert config.pruning_enabled is value

    @pytest.mark.parametrize("text", [
        "[hierarchy]\nmax_layers = 2.5\n",
        "[hierarchy]\nmax_layers = 0\n",
        "[hierarchy]\neps = auto\n",
        "[hierarchy]\ntau1 = far\n",
        "[hierarchy]\np3 = auto\n",
        "[hierarchy]\ns_factor = 9\n",
        "[hierarchy]\npruning_enabled = maybe\n",
        "[hierarchy]\neps = inf\n",
        "[hierarchy]\neps = -0.1\n",
        "[hierarchy]\ntau1 = inf\n",
        "[hierarchy]\ntau1 = 0\n",
        "[hierarchy]\ntau1 = -1\n",
        "[hierarchy]\nscale_divisor = nan\n",
        "[hierarchy]\ntube_tolerance = inf\n",
        "[hierarchy]\ntube_tolerance = 0\n",
        "[hierarchy]\nstop_residual_var = nan\n",
        "[hierarchy]\nstop_rel_improvement = inf\n",
        "[hierarchy]\np3 = inf\n",
        "[hierarchy]\nscale_divisor = 1e200\n",  # divisor ** (max_layers - 1) overflows
        "[hierarchy]\nmax_layers = 5000\n",
    ])
    def test_bad_values(self, ini, text):
        with pytest.raises(ConfigError):
            hierarchy_config_from(ini(text))

    def test_divisor_below_two_keeps_its_type(self, ini):
        # the CLI maps InvalidDivisor to the training-failure exit code
        with pytest.raises(InvalidDivisor):
            hierarchy_config_from(ini("[hierarchy]\nscale_divisor = 1.5\n"))


class TestGrid:
    def test_every_key(self, ini):
        grid = grid_spec_from(ini(
            "[grid]\nexponent_low = -4\nexponent_high = 5\nexponent_step = 3\n"
            "tie_p1_p2 = no\ntie_p3_p4 = false\ntie_eps = 0\nobjective = sse\n"
            "tuning_fraction = 0.3\n[kernel]\nkind = gaussian\ntau = 2\n"
        ))
        assert grid == GridSpec(
            exponent_low=-4, exponent_high=5, exponent_step=3, tie_p1_p2=False,
            tie_p3_p4=False, tie_eps=False, objective="sse",
            tuning_fraction=0.3, kernel=KernelSpec("gaussian", 2.0),
        )

    def test_defaults_without_section(self, ini):
        assert grid_spec_from(ini("[suite]\n")) == GridSpec()

    @pytest.mark.parametrize("text", [
        "[grid]\nexponent_low = low\n",
        "[grid]\nexponent_step = 0\n",
        "[grid]\nexponent_low = 3\nexponent_high = 1\n",
        "[grid]\ntie_eps = sometimes\n",
        "[grid]\nobjective = mae\n",
        "[grid]\ntuning_fraction = auto\n",
        "[grid]\ntuning_fraction = 0\n",
        "[grid]\ntuning_fraction = 1\n",
        "[grid]\ntuning_fraction = 1.5\n",
        "[grid]\nexponent_high = 1100\n",  # 2**1100 overflows
        "[grid]\nexponent_low = -1100\n",  # 2**-1100 is 0
    ])
    def test_bad_values(self, ini, text):
        with pytest.raises(ConfigError):
            grid_spec_from(ini(text))


class TestSuite:
    def test_every_key(self, ini, tmp_path):
        suite = suite_from(ini(
            "[suite]\ndatasets = sinc, mine,\nregressors = tsvr ,hftsvr\n"
            "n_seeds = 3\nbase_seed = 7\noutdir = results\n"
            "csv_path.mine = data/mine.csv\n"
            "[grid]\nexponent_step = 2\n[hierarchy]\nmax_layers = 2\np3 = 0.5\n"
        ))
        assert suite.datasets == ("sinc", "mine")
        assert suite.regressors == ("tsvr", "hftsvr")
        assert (suite.n_seeds, suite.base_seed) == (3, 7)
        assert suite.outdir == "results"
        assert suite.csv_paths == {"mine": "data/mine.csv"}
        assert suite.grid == GridSpec(exponent_step=2)
        assert suite.hierarchy_base == HierarchyConfig(
            max_layers=2, base_params=TsvrParams(1.0, 1.0, 0.5, 0.5)
        )

    def test_defaults(self, ini):
        suite = suite_from(ini("[suite]\n"))
        assert suite == SuiteSpec(
            hierarchy_base=HierarchyConfig(base_params=TsvrParams(1.0, 1.0, 0.1, 0.1))
        )

    @pytest.mark.parametrize("key", ["MyData", "mydata", "MYDATA"])
    def test_csv_path_matches_dataset_case_insensitively(self, ini, key):
        suite = suite_from(ini(
            f"[suite]\ndatasets = MyData, sinc\ncsv_path.{key} = data/mine.csv\n"
        ))
        assert suite.datasets == ("MyData", "sinc")
        assert suite.csv_paths == {"MyData": "data/mine.csv"}

    @pytest.mark.parametrize("word", ["none", "auto", ""])
    def test_outdir_stays_a_plain_string(self, ini, word):
        assert suite_from(ini(f"[suite]\noutdir = {word}\n")).outdir == word

    def test_missing_section(self, ini):
        with pytest.raises(ConfigError):
            suite_from(ini("[grid]\nexponent_step = 2\n"))

    @pytest.mark.parametrize("text", [
        "[suite]\nn_seeds = many\n",
        "[suite]\nn_seeds = 0\n",
        "[suite]\nbase_seed = 1.5\n",
        "[suite]\n[grid]\nobjective = mae\n",
        "[suite]\n[hierarchy]\neps = -1\n",
    ])
    def test_bad_values(self, ini, text):
        with pytest.raises(ConfigError):
            suite_from(ini(text))

    def test_suite_error_reported_before_hierarchy_error(self, ini):
        with pytest.raises(ConfigError, match="base_seed"):
            suite_from(ini(
                "[suite]\nbase_seed = first\n[hierarchy]\nmax_layers = several\n"
            ))


def test_readme_example_parses(ini):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    path = ini(blocks[0])
    for reader in (tsvr_params_from, hierarchy_config_from, grid_spec_from, suite_from):
        reader(path)
