"""Exact q-series toolkit for 2-colored and cylindric partition identities.

Subpackage map:

* ``laurent``    -- sparse Laurent polynomials and rational functions
* ``series``     -- truncated q-series, (x, q)-series, Pochhammer products
* ``colored``    -- 2-colored partitions, difference conditions, patterns
* ``automata``   -- block encoding, factor-avoidance DFA, transfer systems
* ``cylindric``  -- cylindric partitions and the profile recursion engine
* ``holonomic``  -- q-hypergeometric terms, certificates, sums, x-shift systems
* ``catalog``    -- the bundled products, sums, operators and certificate sets
* ``celine``     -- certificate search by a q-analogue of Sister Celine's method
* ``serialize``  -- deterministic JSON and text encodings
* ``verification`` -- the named end-to-end verification tasks
* ``cli``        -- batch command-line front-end
"""

__version__ = "0.1.0"
