"""CNFET multiple-valued-logic full-adder simulator and benchmark harness.

Modules by concern:

- devices: chirality/threshold laws and square-law transistor models
- netlist: SPICE-subset parser, flattener, canonical serializer
- solver:  MNA Newton solver, DC operating point, fixed-step or error-controlled transient
- measure: average power, mid-swing propagation delay, PDP
- adders:  built-in gate/adder constructors and the benchmark testbench
- logic:   threshold-logic oracle for exhaustive truth-table checks
- bench:   benchmark matrix, report formats, paper reference metadata
- charts:  deterministic SVG bar charts and chart data of a benchmark run
- cli:     cnfetsim command-line entry point
"""

__version__ = "0.1.0"
