"""A naive reference replay engine, and the tests that hold the engine to it."""
