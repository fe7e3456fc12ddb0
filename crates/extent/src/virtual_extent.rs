//! Computed extents for the virtual classes of §5.6.
//!
//! "Virtual classes such as H1 and A1 are not explicitly manipulated, and
//! hence we need an alternate way of detecting when an object belongs to
//! their extent. The solution is to view the extent of H1 to be exactly
//! those objects which are the values of treatedAt attributes for some
//! Tubercular_Patient. […] the extent of such virtual classes is
//! implicitly manipulated when explicit changes to normal classes are
//! made."

use std::collections::BTreeSet;

use chc_core::{VirtualClassInfo, Virtualized};
use chc_model::{Oid, Value};

use crate::store::ExtentStore;

/// Computes the current extent of one virtual class: the values reached by
/// following its attribute path from every instance of its root class.
/// A reference to a destroyed object reaches nothing.
pub fn virtual_extent(store: &ExtentStore, info: &VirtualClassInfo) -> BTreeSet<Oid> {
    let mut out = BTreeSet::new();
    for root_obj in store.extent(info.root) {
        let mut frontier = vec![root_obj];
        for (i, &seg) in info.path.iter().enumerate() {
            let mut next = Vec::new();
            for o in frontier {
                if let Some(&Value::Obj(target)) = store.get_attr(o, seg) {
                    if store.exists(target) {
                        next.push(target);
                    }
                }
            }
            frontier = next;
            if i + 1 == info.path.len() {
                out.extend(frontier.iter().copied());
                break;
            }
        }
    }
    out
}

/// Synchronizes the store's memberships with every virtual class's
/// computed extent, so that membership tests and the type system's
/// `InstanceView` calls see virtual classes like any other. Call after a
/// batch of explicit changes.
pub fn refresh_virtual_extents(store: &mut ExtentStore, v: &Virtualized) {
    let _span = chc_obs::span(chc_obs::names::SPAN_EXTENT_REFRESH);
    for info in &v.virtuals {
        let fresh = virtual_extent(store, info);
        let stale: Vec<Oid> = store
            .extent(info.class)
            .filter(|o| !fresh.contains(o))
            .collect();
        for o in stale {
            store.remove_from_class(&v.schema, o, info.class);
        }
        for o in fresh {
            store.add_to_class(&v.schema, o, info.class);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_core::virtualize;
    use chc_sdl::compile;

    fn setup() -> (Virtualized, ExtentStore, Oid, Oid, Oid) {
        let schema = compile(
            "
            class Address with state: {'NJ}; city: String;
            class Hospital with accreditation: {'Local}; location: Address;
            class Patient with treatedAt: Hospital;
            class Tubercular_Patient is-a Patient with
                treatedAt: Hospital [
                    accreditation: None excuses accreditation on Hospital;
                    location: Address [
                        state: None excuses state on Address;
                        country: {'Switzerland}
                    ]
                ];
            ",
        )
        .unwrap();
        let v = virtualize(&schema).unwrap();
        let s = &v.schema;
        let mut store = ExtentStore::new(s);
        let swiss_addr = store.create(s, &[s.class_by_name("Address").unwrap()]);
        let swiss_hosp = store.create(s, &[s.class_by_name("Hospital").unwrap()]);
        let tb_patient = store.create(s, &[s.class_by_name("Tubercular_Patient").unwrap()]);
        let location = s.sym("location").unwrap();
        let treated_at = s.sym("treatedAt").unwrap();
        store.set_attr(swiss_hosp, location, Value::Obj(swiss_addr));
        store.set_attr(tb_patient, treated_at, Value::Obj(swiss_hosp));
        (v.clone(), store, swiss_addr, swiss_hosp, tb_patient)
    }

    #[test]
    fn h1_extent_is_the_treated_at_image() {
        let (v, store, _addr, hosp, _tb) = setup();
        let h1 = v.virtuals.iter().find(|i| i.path.len() == 1).unwrap();
        let extent = virtual_extent(&store, h1);
        assert_eq!(extent.into_iter().collect::<Vec<_>>(), vec![hosp]);
    }

    #[test]
    fn a1_extent_follows_the_two_step_path() {
        let (v, store, addr, _hosp, _tb) = setup();
        let a1 = v.virtuals.iter().find(|i| i.path.len() == 2).unwrap();
        let extent = virtual_extent(&store, a1);
        assert_eq!(extent.into_iter().collect::<Vec<_>>(), vec![addr]);
    }

    #[test]
    fn refresh_updates_membership_both_ways() {
        let (v, mut store, _addr, hosp, tb) = setup();
        let h1 = v.virtuals.iter().find(|i| i.path.len() == 1).unwrap();
        refresh_virtual_extents(&mut store, &v);
        assert!(store.is_member(hosp, h1.class));

        // Implicit manipulation: the patient switches to an ordinary
        // hospital, so the Swiss hospital drops out of H1.
        let s = &v.schema;
        let ordinary = store.create(s, &[s.class_by_name("Hospital").unwrap()]);
        let treated_at = s.sym("treatedAt").unwrap();
        store.set_attr(tb, treated_at, Value::Obj(ordinary));
        refresh_virtual_extents(&mut store, &v);
        assert!(!store.is_member(hosp, h1.class));
        assert!(store.is_member(ordinary, h1.class));
    }

    #[test]
    fn destroyed_targets_leave_the_extent() {
        let (v, mut store, addr, hosp, _tb) = setup();
        refresh_virtual_extents(&mut store, &v);
        // The patient still refers to the hospital, and the hospital to
        // the address, after both are destroyed.
        store.destroy(addr);
        let a1 = v.virtuals.iter().find(|i| i.path.len() == 2).unwrap();
        assert!(virtual_extent(&store, a1).is_empty());
        refresh_virtual_extents(&mut store, &v);
        let h1 = v.virtuals.iter().find(|i| i.path.len() == 1).unwrap();
        assert!(store.is_member(hosp, h1.class));

        store.destroy(hosp);
        assert!(virtual_extent(&store, h1).is_empty());
        refresh_virtual_extents(&mut store, &v);
        assert_eq!(store.count(h1.class), 0);
        assert_eq!(store.count(a1.class), 0);
    }

    #[test]
    fn non_tubercular_patients_do_not_populate_h1() {
        let (v, mut store, _addr, _hosp, _tb) = setup();
        let s = &v.schema;
        let plain_hosp = store.create(s, &[s.class_by_name("Hospital").unwrap()]);
        let plain_patient = store.create(s, &[s.class_by_name("Patient").unwrap()]);
        let treated_at = s.sym("treatedAt").unwrap();
        store.set_attr(plain_patient, treated_at, Value::Obj(plain_hosp));
        let h1 = v.virtuals.iter().find(|i| i.path.len() == 1).unwrap();
        let extent = virtual_extent(&store, h1);
        assert!(!extent.contains(&plain_hosp));
    }
}
