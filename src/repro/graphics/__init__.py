"""Graphics package (substrate S6).

The paper's Riot sat on a ~4000-line SIMULA graphics package driving
the "Charles" color raster terminal, the GIGI terminal and an HP 7221A
pen plotter.  None of that hardware exists here, so this package is a
headless equivalent: an indexed-color framebuffer with the classic
raster primitives, a world<->screen viewport with zoom and pan, the
three-area Riot display layout of figure 2, and three hardcopy
backends (SVG, HP-GL-style plotter commands, ASCII art).

Everything renders deterministically with no display attached, which
is what lets the interactive editor run under test.
"""
