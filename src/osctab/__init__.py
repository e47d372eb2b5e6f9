"""Exact enumeration of lattice walks, matching statistics, and orbit search.

The package exports only `__version__`; import the module that holds a
name (`osctab.tableaux`, `osctab.matchings`, ...), so that a process
loads only the modules its work uses.
"""

__version__ = "0.1.0"
