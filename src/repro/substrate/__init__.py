"""Process-boundary transport for the resident-state executor.

:mod:`repro.substrate.shm` holds :class:`~repro.substrate.shm.ShmArena`,
the shared-memory blob arena :mod:`repro.pram.shmexec` seeds its
persistent workers through.  The orientation state itself lives in the
sorted slabs of :mod:`repro.core.outset` and :mod:`repro.core.inindex`.
"""
