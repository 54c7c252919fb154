#pragma once

// The refutation example of Davis, Burns, Bril & Lukkien, "Controller
// Area Network (CAN) schedulability analysis: Refuted, revisited and
// revised" (Real-Time Systems 35, 2007): three 8-byte standard frames at
// 125 kbit/s, one per fullCAN node, worst-case stuffing, so every frame
// takes 135 bits x 8 us = 1.08 ms. A, B and C have ascending ids,
// T_A = 2.7 ms, T_B = T_C = 3.78 ms and D = T. The lowest-priority
// message C has its worst response in its *second* instance of the
// level-C busy period, which the pre-2007 analysis never examined.
// data/davis2007_refutation.csv holds the same bus.

#include "symcan/can/kmatrix.hpp"

namespace symcan::testing_support {

inline KMatrix davis2007_bus() {
  KMatrix km{"davis2007", BitTiming{125'000}};
  for (const char* node : {"NA", "NB", "NC"}) {
    EcuNode n;
    n.name = node;
    km.add_node(n);
  }
  const struct {
    const char* name;
    CanId id;
    Duration period;
    const char* sender;
    const char* receiver;
  } rows[] = {{"A", 1, Duration::us(2700), "NA", "NB"},
              {"B", 2, Duration::us(3780), "NB", "NC"},
              {"C", 3, Duration::us(3780), "NC", "NA"}};
  for (const auto& r : rows) {
    CanMessage m;
    m.name = r.name;
    m.id = r.id;
    m.payload_bytes = 8;
    m.period = r.period;
    m.sender = r.sender;
    m.receivers = {r.receiver};
    km.add_message(m);
  }
  return km;
}

}  // namespace symcan::testing_support
