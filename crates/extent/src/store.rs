//! The extent store: objects, memberships, and attribute values.
//!
//! §2c: "Usually an extent is associated with a class, representing those
//! objects which are instances of the class at some particular time."
//! §3c: "if an object is added to the extent of Physician, it is
//! automatically added to the extents of all its superclasses" — the
//! subset constraint is maintained *by the store*, not by per-class
//! procedures (the error-prone alternative the paper warns about, which
//! `chc-baselines` implements for comparison).

use chc_model::{ClassId, InstanceView, Oid, Schema, Sym, Value};

/// An in-memory object store keyed by the schema it was created against.
///
/// Surrogates are dense: the n-th object created gets `Oid` n, and every
/// per-object table is a vector indexed by it. Membership is one flat
/// array of words, `stride` words per object; extents are ascending
/// vectors of oids (creation order, so loading only ever appends).
/// Attribute values live in one arena of `(attr, value)` pairs, each
/// object's in one run of it, holding only the attributes the object
/// has. A run that must grow and is not last in the arena moves to the
/// end and leaves holes; once the holes outnumber the stored pairs, one
/// pass compacts the arena.
///
/// ```
/// use chc_extent::ExtentStore;
/// let schema = chc_sdl::compile("
///     class Person;
///     class Physician is-a Person;
/// ").unwrap();
/// let physician = schema.class_by_name("Physician").unwrap();
/// let person = schema.class_by_name("Person").unwrap();
/// let mut store = ExtentStore::new(&schema);
/// let greg = store.create(&schema, &[physician]);
/// // §3c: adding to Physician automatically adds to Person.
/// assert!(store.is_member(greg, person));
/// assert_eq!(store.count(person), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ExtentStore {
    num_classes: usize,
    /// Membership words per object: `num_classes` rounded up to 64 bits.
    stride: usize,
    /// Per-object membership bits, upward closed; all zero once destroyed.
    membership: Vec<u64>,
    /// Per-class extents, ascending by oid, kept in sync with `membership`.
    extents: Vec<Vec<Oid>>,
    /// Every object's attribute values, one run per object, at most one
    /// pair per attribute; a slot no run covers is a hole holding
    /// [`Value::Absent`].
    values: Vec<(Sym, Value)>,
    /// One run per oid ever minted, [`Run::DEAD`] once destroyed.
    runs: Vec<Run>,
    /// The holes in `values`.
    holes: usize,
    live: usize,
}

/// An object's attribute values: `len` pairs of the value arena from
/// `start`. A run that is not empty lies inside the arena; an empty one
/// is [`Run::EMPTY`], so shortening the arena never strands it.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: u32,
    len: u32,
}

impl Run {
    /// A destroyed object's run.
    const DEAD: Run = Run {
        start: u32::MAX,
        len: 0,
    };

    const EMPTY: Run = Run { start: 0, len: 0 };

    /// The run of `len` slots from `start`.
    fn at(start: usize, len: usize) -> Run {
        let slot = |n: usize| {
            u32::try_from(n)
                .ok()
                .filter(|&n| n != u32::MAX)
                .expect("value arena overflow")
        };
        match len {
            0 => Run::EMPTY,
            _ => Run {
                start: slot(start),
                len: slot(len),
            },
        }
    }

    fn live(self) -> bool {
        self.start != u32::MAX
    }

    fn slots(self) -> std::ops::Range<usize> {
        self.start as usize..self.end()
    }

    fn end(self) -> usize {
        self.start as usize + self.len as usize
    }
}

impl ExtentStore {
    /// Creates an empty store for `schema`.
    pub fn new(schema: &Schema) -> Self {
        ExtentStore {
            num_classes: schema.num_classes(),
            stride: schema.num_classes().div_ceil(64),
            membership: Vec::new(),
            extents: vec![Vec::new(); schema.num_classes()],
            values: Vec::new(),
            runs: Vec::new(),
            holes: 0,
            live: 0,
        }
    }

    /// Makes room for `objects` more objects and `values` more attribute
    /// values, so a bulk load grows no table while it runs.
    pub(crate) fn reserve(&mut self, objects: usize, values: usize) {
        self.runs.reserve(objects);
        self.membership.reserve(objects.saturating_mul(self.stride));
        self.values.reserve(values);
    }

    fn assert_schema(&self, schema: &Schema) {
        assert_eq!(
            self.num_classes,
            schema.num_classes(),
            "store used with a different schema"
        );
    }

    /// The dense index of `oid` if it was ever minted here.
    fn index(&self, oid: Oid) -> Option<usize> {
        usize::try_from(oid.raw())
            .ok()
            .filter(|&i| i < self.runs.len())
    }

    /// The dense index and value run of a live object.
    fn run(&self, oid: Oid) -> Option<(usize, Run)> {
        let i = self.index(oid)?;
        Some((i, self.runs[i])).filter(|(_, run)| run.live())
    }

    /// The attribute values of a live object.
    fn values(&self, oid: Oid) -> Option<&[(Sym, Value)]> {
        self.run(oid).map(|(_, run)| &self.values[run.slots()])
    }

    /// Moves object `i`'s run to the end of the arena, leaving holes
    /// where it was.
    fn relocate(&mut self, i: usize) {
        let run = self.runs[i];
        self.runs[i] = Run::at(self.values.len(), run.len as usize);
        for k in run.slots() {
            let (attr, value) = &mut self.values[k];
            let pair = (*attr, std::mem::replace(value, Value::Absent));
            self.values.push(pair);
        }
        self.holes += run.len as usize;
    }

    /// Drops the values of a run no object holds any more.
    fn free(&mut self, run: Run) {
        if run.end() == self.values.len() {
            self.values.truncate(run.start as usize);
            return;
        }
        for (_, value) in &mut self.values[run.slots()] {
            *value = Value::Absent;
        }
        self.holes += run.len as usize;
    }

    /// Compacts the arena in one pass, in oid order, once its holes
    /// outnumber the pairs it stores; each hole was made by moving or
    /// dropping a pair, so the pass costs O(1) per hole.
    fn compact_if_sparse(&mut self) {
        let stored = self.values.len() - self.holes;
        if self.holes <= stored {
            return;
        }
        let mut values = Vec::with_capacity(stored);
        for run in self.runs.iter_mut().filter(|run| run.live()) {
            let start = values.len();
            values.extend(
                self.values[run.slots()]
                    .iter_mut()
                    .map(|(attr, value)| (*attr, std::mem::replace(value, Value::Absent))),
            );
            *run = Run::at(start, run.len as usize);
        }
        (self.values, self.holes) = (values, 0);
    }

    /// Slots in the value arena, holes included: at most twice the
    /// attribute values stored.
    pub fn value_slots(&self) -> usize {
        self.values.len()
    }

    /// Sets `class`'s bit for object `i`; if it was clear, files the
    /// object in that extent and returns `true`.
    fn join(&mut self, i: usize, class: ClassId) -> bool {
        let c = class.index();
        let word = &mut self.membership[i * self.stride + c / 64];
        if *word & (1 << (c % 64)) != 0 {
            return false;
        }
        *word |= 1 << (c % 64);
        let oid = Oid::from_raw(i as u64);
        let extent = &mut self.extents[c];
        match extent.last() {
            Some(&last) if last > oid => {
                let at = extent
                    .binary_search(&oid)
                    .expect_err("an extent holds exactly the objects with its bit set");
                extent.insert(at, oid);
            }
            _ => extent.push(oid),
        }
        true
    }

    /// Clears `class`'s bit for object `i`; if it was set, drops the
    /// object from that extent and returns `true`.
    fn leave(&mut self, i: usize, class: usize) -> bool {
        let word = &mut self.membership[i * self.stride + class / 64];
        if *word & (1 << (class % 64)) == 0 {
            return false;
        }
        *word &= !(1 << (class % 64));
        let extent = &mut self.extents[class];
        if let Ok(at) = extent.binary_search(&Oid::from_raw(i as u64)) {
            extent.remove(at);
        }
        true
    }

    /// Creates an object that is an instance of each of `classes` (and,
    /// automatically, of all their superclasses).
    pub fn create(&mut self, schema: &Schema, classes: &[ClassId]) -> Oid {
        let (oid, fanout) = self.create_counted(schema, classes);
        chc_obs::counter(chc_obs::names::EXTENT_ADD_FANOUT, fanout);
        oid
    }

    /// [`ExtentStore::create`], leaving the `extent.add_fanout` counter
    /// to the caller: returns the object and the number of extents it
    /// joined, so a bulk loader can report the sum once.
    pub(crate) fn create_counted(&mut self, schema: &Schema, classes: &[ClassId]) -> (Oid, u64) {
        self.assert_schema(schema);
        let i = self.runs.len();
        self.runs.push(Run::EMPTY);
        self.live += 1;
        self.membership
            .resize(self.membership.len() + self.stride, 0);
        let mut fanout = 0u64;
        for &c in classes {
            for a in schema.ancestors_with_self(c) {
                fanout += u64::from(self.join(i, a));
            }
        }
        chc_obs::histogram(chc_obs::names::EXTENT_FANOUT_HIST, fanout);
        (Oid::from_raw(i as u64), fanout)
    }

    /// Adds an existing object to a class (and its superclasses).
    pub fn add_to_class(&mut self, schema: &Schema, oid: Oid, class: ClassId) {
        self.assert_schema(schema);
        let (i, _) = self.run(oid).expect("unknown object");
        let mut fanout = 0u64;
        for a in schema.ancestors_with_self(class) {
            fanout += u64::from(self.join(i, a));
        }
        chc_obs::counter(chc_obs::names::EXTENT_ADD_FANOUT, fanout);
        chc_obs::histogram(chc_obs::names::EXTENT_FANOUT_HIST, fanout);
    }

    /// Removes an object from a class and every *subclass* (membership
    /// must stay upward closed: an ex-Physician may remain a Person).
    pub fn remove_from_class(&mut self, schema: &Schema, oid: Oid, class: ClassId) {
        self.assert_schema(schema);
        let (i, _) = self.run(oid).expect("unknown object");
        let mut fanout = 0u64;
        for d in schema.descendants_with_self(class) {
            fanout += u64::from(self.leave(i, d.index()));
        }
        chc_obs::counter(chc_obs::names::EXTENT_REMOVE_FANOUT, fanout);
        chc_obs::histogram(chc_obs::names::EXTENT_FANOUT_HIST, fanout);
    }

    /// Destroys an object entirely, in time proportional to its classes
    /// and values.
    pub fn destroy(&mut self, oid: Oid) {
        let Some((i, run)) = self.run(oid) else {
            return;
        };
        for c in self.classes_of(oid) {
            self.leave(i, c.index());
        }
        self.runs[i] = Run::DEAD;
        self.free(run);
        self.compact_if_sparse();
        self.live -= 1;
    }

    /// Whether the object exists.
    pub fn exists(&self, oid: Oid) -> bool {
        self.run(oid).is_some()
    }

    /// Sets an attribute value: in place when the object has the
    /// attribute, else appended to its run, which first moves to the end
    /// of the arena unless it is there already.
    ///
    /// # Panics
    /// Panics if `oid` is not a live object of this store.
    pub fn set_attr(&mut self, oid: Oid, attr: Sym, value: Value) {
        let (i, run) = self.run(oid).expect("unknown object");
        if let Some(slot) = self.values[run.slots()]
            .iter_mut()
            .find(|(a, _)| *a == attr)
        {
            slot.1 = value;
            return;
        }
        if run.end() != self.values.len() {
            self.relocate(i);
        }
        let run = self.runs[i];
        self.runs[i] = Run::at(self.values.len() - run.len as usize, run.len as usize + 1);
        self.values.push((attr, value));
        self.compact_if_sparse();
    }

    /// Replaces all of an object's attribute values with `values`, which
    /// it drains; `values` names each attribute at most once.
    pub(crate) fn set_attrs(&mut self, oid: Oid, values: &mut Vec<(Sym, Value)>) {
        let (i, run) = self.run(oid).expect("unknown object");
        self.free(run);
        self.runs[i] = Run::at(self.values.len(), values.len());
        self.values.append(values);
        self.compact_if_sparse();
    }

    /// Reads an attribute value.
    pub fn get_attr(&self, oid: Oid, attr: Sym) -> Option<&Value> {
        let values = self.values(oid)?;
        values.iter().find(|(a, _)| *a == attr).map(|(_, v)| v)
    }

    /// Clears an attribute value, dropping it; returns whether one was
    /// set.
    pub fn clear_attr(&mut self, oid: Oid, attr: Sym) -> bool {
        let Some((i, run)) = self.run(oid) else {
            return false;
        };
        let Some(at) = self.values[run.slots()]
            .iter()
            .position(|(a, _)| *a == attr)
        else {
            return false;
        };
        let last = run.end() - 1;
        self.values.swap(run.start as usize + at, last);
        self.runs[i] = Run::at(run.start as usize, run.len as usize - 1);
        self.free(Run::at(last, 1));
        self.compact_if_sparse();
        true
    }

    /// Membership test: one word read.
    pub fn is_member(&self, oid: Oid, class: ClassId) -> bool {
        let c = class.index();
        c < self.num_classes
            && self
                .index(oid)
                .is_some_and(|i| self.membership[i * self.stride + c / 64] & (1 << (c % 64)) != 0)
    }

    /// The classes `oid` belongs to as membership words, upward closed:
    /// class `c` is bit `c % 64` of word `c / 64`. All zero for a
    /// destroyed object, empty for an oid never minted here.
    pub fn membership_words(&self, oid: Oid) -> &[u64] {
        self.index(oid).map_or(&[], |i| {
            &self.membership[i * self.stride..(i + 1) * self.stride]
        })
    }

    /// The classes `oid` belongs to, ascending.
    pub fn classes_of(&self, oid: Oid) -> Vec<ClassId> {
        let Some(i) = self.index(oid) else {
            return Vec::new();
        };
        let words = &self.membership[i * self.stride..(i + 1) * self.stride];
        let mut out = Vec::new();
        for (w, &word) in words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(ClassId::from_raw((w * 64) as u32 + bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        out
    }

    /// Iterates the extent of a class in surrogate order.
    pub fn extent(&self, class: ClassId) -> impl Iterator<Item = Oid> + '_ {
        self.extents[class.index()].iter().copied()
    }

    /// §2c: "perform operations like counting entities."
    pub fn count(&self, class: ClassId) -> usize {
        self.extents[class.index()].len()
    }

    /// Quantification over an extent: ∀x ∈ C. pred(x).
    pub fn all(&self, class: ClassId, pred: impl FnMut(Oid) -> bool) -> bool {
        self.extent(class).all(pred)
    }

    /// Quantification over an extent: ∃x ∈ C. pred(x).
    pub fn any(&self, class: ClassId, pred: impl FnMut(Oid) -> bool) -> bool {
        self.extent(class).any(pred)
    }

    /// Total number of live objects.
    pub fn num_objects(&self) -> usize {
        self.live
    }

    /// Follows one attribute step from an object to another object.
    pub fn follow(&self, oid: Oid, attr: Sym) -> Option<Oid> {
        match self.get_attr(oid, attr) {
            Some(Value::Obj(o)) => Some(*o),
            _ => None,
        }
    }

    /// Follows an attribute path, returning the final value (which may be
    /// a scalar). `None` if any intermediate step is missing or non-entity.
    pub fn follow_path(&self, oid: Oid, path: &[Sym]) -> Option<&Value> {
        let (last, steps) = path.split_last()?;
        let mut cur = oid;
        for &s in steps {
            cur = self.follow(cur, s)?;
        }
        self.get_attr(cur, *last)
    }
}

impl InstanceView for ExtentStore {
    fn is_instance(&self, oid: Oid, class: ClassId) -> bool {
        self.is_member(oid, class)
    }
    fn attr_value(&self, oid: Oid, attr: Sym) -> Option<&Value> {
        self.get_attr(oid, attr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_sdl::compile;

    fn schema() -> Schema {
        compile(
            "
            class Person with age: 1..120;
            class Physician is-a Person;
            class Oncologist is-a Physician;
            class Patient is-a Person;
            ",
        )
        .unwrap()
    }

    #[test]
    fn create_propagates_to_superclass_extents() {
        let s = schema();
        let mut store = ExtentStore::new(&s);
        let onc = s.class_by_name("Oncologist").unwrap();
        let phys = s.class_by_name("Physician").unwrap();
        let person = s.class_by_name("Person").unwrap();
        let o = store.create(&s, &[onc]);
        assert!(store.is_member(o, onc));
        assert!(store.is_member(o, phys));
        assert!(store.is_member(o, person));
        assert_eq!(store.count(person), 1);
        assert_eq!(store.count(s.class_by_name("Patient").unwrap()), 0);
    }

    #[test]
    fn multiple_class_membership() {
        let s = schema();
        let mut store = ExtentStore::new(&s);
        let phys = s.class_by_name("Physician").unwrap();
        let patient = s.class_by_name("Patient").unwrap();
        let person = s.class_by_name("Person").unwrap();
        // A physician who is also a patient (§4.1's overlapping classes).
        let o = store.create(&s, &[phys, patient]);
        assert!(store.is_member(o, phys) && store.is_member(o, patient));
        assert_eq!(store.count(person), 1, "one object, not two");
    }

    #[test]
    fn remove_from_class_removes_descendants_only() {
        let s = schema();
        let mut store = ExtentStore::new(&s);
        let onc = s.class_by_name("Oncologist").unwrap();
        let phys = s.class_by_name("Physician").unwrap();
        let person = s.class_by_name("Person").unwrap();
        let o = store.create(&s, &[onc]);
        store.remove_from_class(&s, o, phys);
        assert!(!store.is_member(o, onc), "subclass membership must go too");
        assert!(!store.is_member(o, phys));
        assert!(store.is_member(o, person), "person membership survives");
    }

    #[test]
    fn fanout_histogram_summarizes_propagation() {
        let s = schema();
        let rec = std::sync::Arc::new(chc_obs::StatsRecorder::new());
        {
            let _g = chc_obs::scoped(rec.clone());
            let mut store = ExtentStore::new(&s);
            let onc = s.class_by_name("Oncologist").unwrap();
            let person = s.class_by_name("Person").unwrap();
            for _ in 0..20 {
                store.create(&s, &[onc]); // fan-out 3: Oncologist, Physician, Person
            }
            store.create(&s, &[person]); // fan-out 1
        }
        let h = rec
            .histogram_summary(chc_obs::names::EXTENT_FANOUT_HIST)
            .expect("fanout histogram recorded");
        assert_eq!(h.count, 21);
        assert_eq!((h.min, h.max), (1, 3));
        // The log₂-bucket percentiles: 20 of 21 samples are 3 (bucket
        // [2,3]), so every reported percentile is the bucket top 3;
        // ordering p50 ≤ p95 ≤ p99 ≤ max must always hold.
        assert_eq!((h.p50, h.p95, h.p99), (3, 3, 3));
        assert!(h.p50 <= h.p95 && h.p95 <= h.p99 && h.p99 <= h.max);
        assert_eq!(
            rec.counter_value(chc_obs::names::EXTENT_ADD_FANOUT),
            20 * 3 + 1
        );
    }

    #[test]
    fn destroy_clears_everything() {
        let s = schema();
        let mut store = ExtentStore::new(&s);
        let phys = s.class_by_name("Physician").unwrap();
        let o = store.create(&s, &[phys]);
        let age = s.sym("age").unwrap();
        store.set_attr(o, age, Value::Int(50));
        store.destroy(o);
        assert!(!store.exists(o));
        assert_eq!(store.count(phys), 0);
        assert!(store.get_attr(o, age).is_none());
    }

    #[test]
    fn attr_round_trip_and_clear() {
        let s = schema();
        let mut store = ExtentStore::new(&s);
        let person = s.class_by_name("Person").unwrap();
        let o = store.create(&s, &[person]);
        let age = s.sym("age").unwrap();
        assert!(store.get_attr(o, age).is_none());
        store.set_attr(o, age, Value::Int(30));
        assert_eq!(store.get_attr(o, age), Some(&Value::Int(30)));
        assert!(store.clear_attr(o, age));
        assert!(!store.clear_attr(o, age));
    }

    #[test]
    fn quantification_and_iteration() {
        let s = schema();
        let mut store = ExtentStore::new(&s);
        let person = s.class_by_name("Person").unwrap();
        let age = s.sym("age").unwrap();
        for i in 0..10 {
            let o = store.create(&s, &[person]);
            store.set_attr(o, age, Value::Int(20 + i));
        }
        assert_eq!(store.extent(person).count(), 10);
        assert!(store.all(
            person,
            |o| matches!(store.get_attr(o, age), Some(Value::Int(a)) if *a >= 20)
        ));
        assert!(store.any(person, |o| store.get_attr(o, age) == Some(&Value::Int(25))));
        assert!(!store.any(person, |o| store.get_attr(o, age) == Some(&Value::Int(99))));
    }

    #[test]
    fn follow_paths() {
        let s = compile(
            "
            class Address with city: String;
            class Hospital with location: Address;
            class Patient with treatedAt: Hospital;
            ",
        )
        .unwrap();
        let mut store = ExtentStore::new(&s);
        let addr = store.create(&s, &[s.class_by_name("Address").unwrap()]);
        let hosp = store.create(&s, &[s.class_by_name("Hospital").unwrap()]);
        let pat = store.create(&s, &[s.class_by_name("Patient").unwrap()]);
        let city = s.sym("city").unwrap();
        let location = s.sym("location").unwrap();
        let treated_at = s.sym("treatedAt").unwrap();
        store.set_attr(addr, city, Value::str("Bern"));
        store.set_attr(hosp, location, Value::Obj(addr));
        store.set_attr(pat, treated_at, Value::Obj(hosp));
        assert_eq!(
            store.follow_path(pat, &[treated_at, location, city]),
            Some(&Value::str("Bern"))
        );
        assert_eq!(store.follow_path(pat, &[location]), None);
    }

    #[test]
    #[should_panic(expected = "different schema")]
    fn schema_mismatch_is_detected() {
        let s1 = schema();
        let s2 = compile("class Lonely;").unwrap();
        let mut store = ExtentStore::new(&s1);
        let lonely = s2.class_by_name("Lonely").unwrap();
        store.create(&s2, &[lonely]);
    }
}
