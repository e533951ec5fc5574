"""Every reference the tests compare with, one module per source module.
No test module defines a reference, and no reference reads a private
``quantakit`` name or a private attribute of any object but ``self``:
``test_references`` holds both rules.

A reference stays while it kills a mutant of the code it checks that no
other test kills, and its header names that mutant.  One that kills no
mutant of its own goes, with the tests that read it; ``test_references``
fails on a definition here that no test reaches, directly or through
another reference."""
