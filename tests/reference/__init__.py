"""Earlier implementations kept as references for the tests, one module
per source module."""
