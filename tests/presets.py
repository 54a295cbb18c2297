"""The bundled presets, loaded from the committed ``configs/*.json`` the way the CLI
loads a config file."""

from pathlib import Path

from noisyfed.config import load_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def preset(name):
    return load_config(CONFIGS / f"{name}.json")
