"""Shared set-up: pytest rewrites the asserts of test modules and of this
file only, and ``python -O`` strips a plain ``assert``, so every helper
module here that asserts is registered for rewriting."""

import pytest

pytest.register_assert_rewrite("composites")
