"""Rewrite the asserts of the shared test helpers as pytest does those of
the test modules, so that they still run under python -O."""

import pytest

pytest.register_assert_rewrite("helpers")
