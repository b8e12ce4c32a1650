let metropolis rng ~t ~delta =
  delta <= 0.0
  || (t > 0.0 && Rng.unit_float rng < exp (-.delta /. t))
