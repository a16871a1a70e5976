* Probe circuit for the circuit.* layer metrics: a MOS common-source stage
* with a diode clamp, an LC output filter and a pulsed input. It is
* nonlinear (MOSFET, diode), reactive (C, L) and has an AC source, so one
* netlist exercises Tran (Newton + sparse refactor per step), OP and AC.
VDD vdd 0 DC 1.8
VIN in 0 PULSE(0.6 1.0 0 2n 2n 40n 100n) AC 1
RG in g 1k
CG g 0 50f
M1 d g 0 nmos w=20u l=1u
RD vdd d 5k
D1 d clamp is=1e-14 n=1
RC clamp 0 20k
CC d mid 1p
L1 mid out 100n esr=0.5
RL out 0 10k
CL out 0 200f
