//! Ghost cells by value type: a cell's value sits unboxed in the column
//! of its type, so writing a cell allocates nothing, and a crashed copy
//! of the engine clones one vector per value type, not a box per cell.

use std::any::Any;

/// What the engine keeps per resource of one kind, by resource id. Ids
/// are dense (the engine mints them in order for every kind), so a
/// table is a vector indexed by id, with a hole where the id names a
/// resource of another kind: a lookup hashes nothing.
#[derive(Debug)]
pub(crate) struct Table<C>(Vec<Option<C>>);

impl<C: Clone> Clone for Table<C> {
    fn clone(&self) -> Self {
        Table(self.0.clone())
    }

    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

impl<C> Table<C> {
    pub(crate) fn new() -> Self {
        Table(Vec::new())
    }

    /// Resource `id`'s entry, if this table holds one.
    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut C> {
        let entry = self.0.get_mut(usize::try_from(id).ok()?)?;
        entry.as_mut()
    }

    /// Makes `c` resource `id`'s entry.
    pub(crate) fn insert(&mut self, id: u64, c: C) {
        let at = usize::try_from(id).expect("resource ids fit the address space");
        if at >= self.0.len() {
            self.0.resize_with(at + 1, || None);
        }
        self.0[at] = Some(c);
    }

    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut C> {
        self.0.iter_mut().flatten()
    }

    fn clear(&mut self) {
        self.0.clear();
    }
}

/// Where a cell's value sits: a column and a row in it (`u32`s: a
/// slot is kept per cell, and the engine's cells number far fewer).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    column: u32,
    row: u32,
}

/// The values of one type, by row.
trait Column: Send {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
    fn boxed_clone(&self) -> Box<dyn Column>;
    /// Makes this column `from`'s values in place; `false` (and nothing
    /// changed) if `from` holds another type.
    fn assign(&mut self, from: &dyn Column) -> bool;
}

impl<T: Clone + Send + 'static> Column for Vec<T> {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn boxed_clone(&self) -> Box<dyn Column> {
        Box::new(self.clone())
    }

    fn assign(&mut self, from: &dyn Column) -> bool {
        let from = from.as_any().downcast_ref::<Self>();
        from.map(|values| self.clone_from(values)).is_some()
    }
}

/// Cells of any value types. `slots` holds, per resource id, what the
/// engine keeps of it (`M`: the slot, and a lease for a durable cell);
/// the engine looks an id up there and reads the value through
/// [`Cells::column`].
pub(crate) struct Cells<M> {
    pub(crate) slots: Table<M>,
    columns: Vec<Box<dyn Column>>,
}

impl<M: Clone> Clone for Cells<M> {
    fn clone(&self) -> Self {
        Cells {
            slots: self.slots.clone(),
            columns: self.columns.iter().map(|c| c.boxed_clone()).collect(),
        }
    }

    /// Keeps each column whose type matches `source`'s at its position,
    /// so a copy made again over the same cells allocates nothing new.
    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
        self.columns.truncate(source.columns.len());
        for (i, from) in source.columns.iter().enumerate() {
            match self.columns.get_mut(i) {
                Some(column) => {
                    if !column.assign(&**from) {
                        *column = from.boxed_clone();
                    }
                }
                None => self.columns.push(from.boxed_clone()),
            }
        }
    }
}

impl<M> Cells<M> {
    pub(crate) fn new() -> Self {
        Cells {
            slots: Table::new(),
            columns: Vec::new(),
        }
    }

    /// Stores `v` as cell `id`, keeping `meta(slot)` for it.
    pub(crate) fn insert<T: Clone + Send + 'static>(
        &mut self,
        id: u64,
        v: T,
        meta: impl FnOnce(Slot) -> M,
    ) {
        let column = match self.columns.iter().position(|c| c.as_any().is::<Vec<T>>()) {
            Some(column) => column,
            None => {
                self.columns.push(Box::new(Vec::<T>::new()));
                self.columns.len() - 1
            }
        };
        let values = self.columns[column].as_any_mut().downcast_mut::<Vec<T>>();
        let values = values.expect("the column was found by its type");
        values.push(v);
        let slot = Slot {
            column: index(column),
            row: index(values.len() - 1),
        };
        self.slots.insert(id, meta(slot));
    }

    /// The column `slot` is in, as `dyn Any` (a `Vec` of its values'
    /// type), and the slot's row in it.
    pub(crate) fn column(&mut self, slot: Slot) -> (&mut dyn Any, usize) {
        (
            self.columns[slot.column as usize].as_any_mut(),
            slot.row as usize,
        )
    }

    /// Forgets every cell.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.columns.clear();
    }
}

/// A column or row number as a slot holds it.
fn index(i: usize) -> u32 {
    u32::try_from(i).expect("fewer than 2^32 cells")
}
