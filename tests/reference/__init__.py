"""Every reference the tests compare with, one module per source module.
No test module defines a reference, and no reference reads a private
``quantakit`` name or a private attribute of any object but ``self``:
``test_references`` holds both rules."""
