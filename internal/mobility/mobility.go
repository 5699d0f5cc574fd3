// Package mobility supplies client trajectories: constant-speed drives
// along the road past the AP array, and the multi-client driving patterns
// of Fig. 19 (following, parallel, opposing).
package mobility

import (
	"math"

	"wgtt/internal/rf"
	"wgtt/internal/sim"
)

// MPHToMps converts miles per hour to meters per second.
func MPHToMps(mph float64) float64 { return mph * 0.44704 }

// Trajectory reports a client's position over virtual time.
type Trajectory interface {
	Pos(t sim.Time) rf.Position
	// SpeedMps is the constant ground speed (0 for stationary).
	SpeedMps() float64
}

// Stationary is a fixed position.
type Stationary rf.Position

// Pos implements Trajectory.
func (s Stationary) Pos(sim.Time) rf.Position { return rf.Position(s) }

// SpeedMps implements Trajectory.
func (s Stationary) SpeedMps() float64 { return 0 }

// Linear is a constant-velocity drive.
type Linear struct {
	Start rf.Position
	// VelX, VelY are the velocity components in m/s.
	VelX, VelY float64
}

// Pos implements Trajectory.
func (l Linear) Pos(t sim.Time) rf.Position {
	s := t.Seconds()
	return rf.Position{X: l.Start.X + l.VelX*s, Y: l.Start.Y + l.VelY*s}
}

// SpeedMps implements Trajectory.
func (l Linear) SpeedMps() float64 { return math.Hypot(l.VelX, l.VelY) }

// Drive returns a trajectory entering the road at startX, lane offset
// laneY, moving in +X at the given mph.
func Drive(startX, laneY, mph float64) Linear {
	return Linear{Start: rf.Position{X: startX, Y: laneY}, VelX: MPHToMps(mph)}
}

// DriveOpposing returns a trajectory moving in −X (the opposite
// direction) at the given mph.
func DriveOpposing(startX, laneY, mph float64) Linear {
	return Linear{Start: rf.Position{X: startX, Y: laneY}, VelX: -MPHToMps(mph)}
}

// Pattern names the Fig. 19 multi-client scenarios.
type Pattern int

// FollowGap is the distance in meters between successive cars of the
// Following pattern, and a scenario population's default follow gap.
const FollowGap = 3.0

// Multi-client driving patterns.
const (
	// Following: cars in the same lane, FollowGap apart.
	Following Pattern = iota
	// Parallel: cars side by side in adjacent lanes.
	Parallel
	// Opposing: cars driving toward each other in opposite lanes.
	Opposing
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case Following:
		return "following"
	case Parallel:
		return "parallel"
	case Opposing:
		return "opposing"
	}
	return "pattern(?)"
}

// Scenario builds the trajectories for n clients in the given pattern.
// Clients move at mph; the road spans x ∈ [startX, …) with lane offsets
// laneY (near lane) and laneY−3 (far lane).
func Scenario(p Pattern, n int, startX, laneY, mph float64) []Trajectory {
	out := make([]Trajectory, 0, n)
	for i := 0; i < n; i++ {
		switch p {
		case Following:
			out = append(out, Drive(startX-FollowGap*float64(i), laneY, mph))
		case Parallel:
			// Adjacent lanes, abreast.
			out = append(out, Drive(startX, laneY-3*float64(i), mph))
		case Opposing:
			if i%2 == 0 {
				out = append(out, Drive(startX, laneY, mph))
			} else {
				// Start at the far end of the deployment,
				// driving back.
				out = append(out, DriveOpposing(startX+60, laneY-3, mph))
			}
		}
	}
	return out
}
