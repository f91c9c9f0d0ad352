// Package tcpvia is the fixture home of the restricted-leaf case: the
// real-socket twin may import no module package.
package tcpvia

import "fixmod/internal/via" // layering violation: a restricted leaf imports a layered package

// Idle exists so the via import is used.
const Idle = via.ViIdle
