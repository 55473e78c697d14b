from pathlib import Path

import pytest

import feedsim as fs

REPO_ROOT = Path(__file__).resolve().parent.parent
REF_CONFIG_PATH = REPO_ROOT / "configs" / "amt10.json"
NET12_CONFIG_PATH = REPO_ROOT / "configs" / "net12.json"


@pytest.fixture(scope="session")
def ref_config() -> fs.SystemConfig:
    """Ten-user network with the AMT-derived 5x5 confusion matrix."""
    return fs.load_config(REF_CONFIG_PATH)


@pytest.fixture
def fresh_ref_config() -> fs.SystemConfig:
    """amt10 loaded anew, with no exact engine built yet: for tests that count
    engine work or shrink the engine's blocks, which must build their own
    tables rather than read the ones `ref_config` keeps."""
    return fs.load_config(REF_CONFIG_PATH)


@pytest.fixture(scope="session")
def ref_config_path() -> Path:
    return REF_CONFIG_PATH


@pytest.fixture(scope="session")
def net12_config() -> fs.SystemConfig:
    """Twelve users with amt10's confusion matrix; its largest exact query
    costs about 1.4e5 cells, far inside the default budget."""
    return fs.load_config(NET12_CONFIG_PATH)
