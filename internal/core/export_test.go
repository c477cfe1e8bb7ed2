package core

import "distws/internal/sched"

// placeLoad exposes load introspection to white-box tests.
func (rt *Runtime) placeLoad(p int) sched.PlaceLoad { return rt.places[p].load() }
