//! Ground-truth checks: every decision the benchmark times is compared
//! with the answer the world's construction (or the scenario oracle)
//! dictates, and every grant is re-validated for the asked subject,
//! object and constraints before it counts.

use drbac_core::{AttrConstraint, Node, ProofValidator};
use drbac_net::proto::Reply;
use drbac_net::NetError;

/// The decision the world's construction dictates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Grant,
    Deny,
}

/// How one timed operation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Correct grant; the proof validated. Carries the number of
    /// certificates (supports included) the client checked.
    Granted { certs: usize },
    /// Correct denial.
    Denied,
    /// A denial where the truth is a grant.
    Wrong(String),
    /// A grant where the truth is a denial, or a proof that does not
    /// validate for the question asked.
    Unsound(String),
    /// An `overloaded:` refusal.
    Overloaded,
    /// No reply within the client's deadline.
    Timeout,
    /// Any other error or an unexpected reply.
    Error(String),
}

impl Verdict {
    /// Whether the operation counts as failed.
    pub fn failed(&self) -> bool {
        !matches!(self, Verdict::Granted { .. } | Verdict::Denied)
    }
}

/// Judges a direct-query reply against the expected decision.
pub fn judge_query(
    reply: &Result<Reply, NetError>,
    validator: &ProofValidator,
    subject: &Node,
    object: &Node,
    constraints: &[AttrConstraint],
    expect: Expect,
) -> Verdict {
    let proofs = match reply {
        Ok(Reply::Proofs(proofs)) => proofs,
        Ok(r) if r.is_overload() => return Verdict::Overloaded,
        Ok(other) => return Verdict::Error(format!("unexpected reply {other:?}")),
        Err(NetError::Timeout(_)) => return Verdict::Timeout,
        Err(e) => return Verdict::Error(e.to_string()),
    };
    let Some(proof) = proofs.first() else {
        return match expect {
            Expect::Deny => Verdict::Denied,
            Expect::Grant => Verdict::Wrong(format!("denied {subject} => {object}")),
        };
    };
    if let Err(e) = validator.validate_query(proof, subject, object, constraints) {
        return Verdict::Unsound(format!("proof for {subject} => {object} rejected: {e}"));
    }
    match expect {
        Expect::Grant => Verdict::Granted {
            certs: proof.all_certs().len(),
        },
        Expect::Deny => Verdict::Unsound(format!("granted {subject} => {object}")),
    }
}

/// Outcome counts over a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub granted: u64,
    pub denied: u64,
    pub wrong: u64,
    pub unsound: u64,
    pub overloaded: u64,
    pub timeouts: u64,
    pub errors: u64,
}

impl Tally {
    /// Counts one verdict, logging the first few failures.
    pub fn add(&mut self, verdict: &Verdict) {
        self.attempted += 1;
        match verdict {
            Verdict::Granted { .. } => self.granted += 1,
            Verdict::Denied => self.denied += 1,
            Verdict::Wrong(_) => self.wrong += 1,
            Verdict::Unsound(_) => self.unsound += 1,
            Verdict::Overloaded => self.overloaded += 1,
            Verdict::Timeout => self.timeouts += 1,
            Verdict::Error(_) => self.errors += 1,
        }
        if verdict.failed() && self.failed() <= 5 {
            eprintln!("perfbench: failed op: {verdict:?}");
        }
    }

    /// Counts an operation that is not a decision (publish, revoke).
    pub fn add_op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.errors += 1;
            if self.failed() <= 5 {
                eprintln!("perfbench: failed op: {}", why());
            }
        }
    }

    /// Failed, refused, timed-out or wrong operations.
    pub fn failed(&self) -> u64 {
        self.wrong + self.unsound + self.overloaded + self.timeouts + self.errors
    }

    /// Whether every answer that came back was right.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.unsound == 0
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.granted += other.granted;
        self.denied += other.denied;
        self.wrong += other.wrong;
        self.unsound += other.unsound;
        self.overloaded += other.overloaded;
        self.timeouts += other.timeouts;
        self.errors += other.errors;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drbac_core::{LocalEntity, Proof, ProofStep, Timestamp, ValidationContext};
    use drbac_crypto::SchnorrGroup;
    use rand::SeedableRng;

    struct World {
        validator: ProofValidator,
        user: Node,
        member: Node,
        other: Node,
        proof: Proof,
    }

    fn world() -> World {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let g = SchnorrGroup::test_256();
        let org = LocalEntity::generate("Org", g.clone(), &mut rng);
        let user = LocalEntity::generate("User", g, &mut rng);
        let member = Node::role(org.role("member"));
        let cert = org
            .delegate(Node::entity(&user), member.clone())
            .sign(&org)
            .unwrap();
        World {
            validator: ProofValidator::new(ValidationContext::at(Timestamp(0))),
            user: Node::entity(&user),
            member,
            other: Node::role(org.role("other")),
            proof: Proof::from_steps(vec![ProofStep::new(cert)]).unwrap(),
        }
    }

    #[test]
    fn correct_decisions_pass() {
        let w = world();
        let grant = Ok(Reply::Proofs(vec![w.proof.clone()]));
        let v = judge_query(&grant, &w.validator, &w.user, &w.member, &[], Expect::Grant);
        assert_eq!(v, Verdict::Granted { certs: 1 });
        let deny = Ok(Reply::Proofs(vec![]));
        let v = judge_query(&deny, &w.validator, &w.user, &w.other, &[], Expect::Deny);
        assert_eq!(v, Verdict::Denied);
    }

    #[test]
    fn the_checker_rejects_deliberately_wrong_decisions() {
        let w = world();
        let mut tally = Tally::default();
        // A grant where the world says deny.
        let grant = Ok(Reply::Proofs(vec![w.proof.clone()]));
        let v = judge_query(&grant, &w.validator, &w.user, &w.member, &[], Expect::Deny);
        assert!(matches!(v, Verdict::Unsound(_)), "{v:?}");
        tally.add(&v);
        // A denial where the world says grant.
        let deny = Ok(Reply::Proofs(vec![]));
        let v = judge_query(&deny, &w.validator, &w.user, &w.member, &[], Expect::Grant);
        assert!(matches!(v, Verdict::Wrong(_)), "{v:?}");
        tally.add(&v);
        // A valid proof of something other than what was asked.
        let v = judge_query(&grant, &w.validator, &w.user, &w.other, &[], Expect::Grant);
        assert!(matches!(v, Verdict::Unsound(_)), "{v:?}");
        tally.add(&v);
        assert_eq!(tally.failed(), 3);
        assert!(!tally.correct());
    }

    #[test]
    fn refusals_and_timeouts_are_failures_not_skips() {
        let w = world();
        let mut tally = Tally::default();
        let refused = Ok(Reply::overloaded("queue full"));
        let v = judge_query(
            &refused,
            &w.validator,
            &w.user,
            &w.member,
            &[],
            Expect::Grant,
        );
        assert_eq!(v, Verdict::Overloaded);
        tally.add(&v);
        let late = Err(NetError::Timeout("w".into()));
        let v = judge_query(&late, &w.validator, &w.user, &w.member, &[], Expect::Grant);
        assert_eq!(v, Verdict::Timeout);
        tally.add(&v);
        assert_eq!(tally.attempted, 2);
        assert_eq!(tally.failed(), 2);
        // Nothing came back wrong, so the run's answers stay correct —
        // but both count against fail_ratio.
        assert!(tally.correct());
    }
}
