"""riot-repro: a reproduction of RIOT (Trimberger & Rowson, DAC 1982).

The public API most users need:

* :class:`repro.core.editor.RiotEditor` — the tool itself;
* :func:`repro.library.stock.filter_library` — the worked example's
  leaf cells;
* :mod:`repro.chip` — the paper's figures 7-10 assembled end to end;
* :func:`repro.core.verify.verify_cell` — netcheck + DRC + extraction.
"""

__version__ = "1.0.0"
