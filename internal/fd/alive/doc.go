// Package alive implements the paper's Figure 3: a failure detector of
// class 𝔈 (Definition 1) for asynchronous systems with unique identifiers
// AS[∅], without initial knowledge of the membership.
//
// Every process broadcasts ALIVE(id(p)) every DefaultPollInterval; on
// receiving ALIVE(i), the receiver moves i to the first position of its
// alive list (inserting it if absent). A crashed process eventually stops
// being refreshed, so its identifier sinks below every correct identifier:
// eventually the correct identifiers permanently occupy the prefix of the
// list (Lemma 1).
package alive
