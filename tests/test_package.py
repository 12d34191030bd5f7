"""Tests for the package's public surface."""

import importlib

import synthconf

MODULES = ("panel", "solvers", "estimators", "inference", "simulation", "io", "exceptions")


def test_package_exports_its_modules_all_lists():
    modules = [importlib.import_module(f"synthconf.{name}") for name in MODULES]
    assert synthconf.__all__ == ["__version__", *(name for module in modules for name in module.__all__)]
    assert len(set(synthconf.__all__)) == len(synthconf.__all__)
    for module in modules:
        for name in module.__all__:
            public = getattr(synthconf, name)
            assert public is getattr(module, name)
            assert public.__module__ == module.__name__, name


def test_cli_all_names_only_what_cli_defines():
    # Each public name has one module whose __all__ declares it.
    from synthconf import cli

    for name in cli.__all__:
        assert getattr(cli, name).__module__ == cli.__name__, name
