"""Workstation and pointing devices (substrate S7).

The paper's figure 1 shows two hardware configurations: the "Charles"
color workstation (LSI-11, color raster display, Xerox mouse, HP 7221A
plotter, text terminal) and the low-cost GIGI workstation (GIGI color
terminal + Summagraphics BitPad).  Neither exists here; this package
substitutes event-level emulations.  Riot's algorithms only ever see
*events* (pointer positions, button presses, typed text), so scripted
event streams exercise exactly the code paths the physical devices
did — deterministically, under test.
"""
