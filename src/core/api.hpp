// Umbrella header: the public API of the rfd library.
//
// A downstream user who wants "the paper as a library" includes this and
// gets:
//   - the formal model (failure patterns, environments, pattern views);
//   - the detector zoo and its property/realism checkers;
//   - the step-level simulator with causal traces;
//   - the agreement algorithms and their spec checkers;
//   - the reductions (T(D->P), TRB->P, totality, the S/P collapse);
//   - the runtime layer's timeout detectors and network model;
//   - the cluster engine's experiments on them: Chen-Toueg QoS and
//     group membership.
#pragma once

#include "common/cli.hpp"
#include "common/process_set.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

#include "model/environment.hpp"
#include "model/failure_pattern.hpp"

#include "fd/cheating_strong.hpp"
#include "fd/eventually_perfect.hpp"
#include "fd/eventually_strong.hpp"
#include "fd/history.hpp"
#include "fd/marabout.hpp"
#include "fd/omega.hpp"
#include "fd/oracle.hpp"
#include "fd/partially_perfect.hpp"
#include "fd/perfect.hpp"
#include "fd/properties.hpp"
#include "fd/realism.hpp"
#include "fd/registry.hpp"
#include "fd/scribe.hpp"

#include "sim/adversary.hpp"
#include "sim/automaton.hpp"
#include "sim/composition.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

#include "algo/broadcast/atomic_broadcast.hpp"
#include "algo/broadcast/reliable_broadcast.hpp"
#include "algo/consensus/cr_chain.hpp"
#include "algo/consensus/ct_rotating.hpp"
#include "algo/consensus/ct_strong.hpp"
#include "algo/consensus/marabout_consensus.hpp"
#include "algo/specs.hpp"
#include "algo/trb/trb.hpp"

#include "reduction/collapse.hpp"
#include "reduction/consensus_to_p.hpp"
#include "reduction/emulation.hpp"
#include "reduction/totality.hpp"
#include "reduction/trb_to_p.hpp"

#include "runtime/detectors.hpp"
#include "runtime/network.hpp"

#include "cluster/membership.hpp"
#include "cluster/qos.hpp"

#include "core/solvability.hpp"
