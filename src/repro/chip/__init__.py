"""The worked example: the four-bit sequential logical filter chip.

This package is the reproduction of the paper's RIOT EXAMPLE section
(figures 7 through 10): the rough floorplan, the logic block assembled
with routed connections (figure 9a) and with stretched connections
(figure 9b), and the completed chip with pads (figure 10).

The functions here drive the editor through exactly the command
sequences the paper describes, and return the measurements the
benchmarks report.
"""
